#include "fleet/collector.hpp"

#include <algorithm>

#include "introspect/flight.hpp"
#include "monitor/export.hpp"
#include "obs/obs.hpp"
#include "util/check.hpp"
#include "util/strings.hpp"

namespace npat::fleet {

namespace wire = memhist::wire;

namespace {

/// A CRC-valid frame the collector cannot use.
void count_unexpected(ProbeState& state) {
  ++state.damage.unexpected_frames;
  NPAT_OBS_COUNT("npat_fleet_unexpected_frames_total",
                 "Valid frames the fleet collector could not merge", 1);
}

}  // namespace

usize FleetView::hosts_ended() const noexcept {
  usize count = 0;
  for (const HostRow& host : hosts) count += host.ended ? 1 : 0;
  return count;
}

ProbeDamage FleetView::damage_total() const noexcept {
  ProbeDamage sum;
  for (const HostRow& host : hosts) {
    sum.dropped_frames += host.damage.dropped_frames;
    sum.resyncs += host.damage.resyncs;
    sum.truncated_flushes += host.damage.truncated_flushes;
    sum.unexpected_frames += host.damage.unexpected_frames;
    sum.orphaned_task_rows += host.damage.orphaned_task_rows;
    sum.orphans_attributed += host.damage.orphans_attributed;
  }
  return sum;
}

u64 FleetView::duplicates_total() const noexcept {
  u64 sum = 0;
  for (const HostRow& host : hosts) sum += host.duplicates;
  return sum;
}

usize FleetCollector::add_probe(std::shared_ptr<util::ByteChannel> channel,
                                std::string fallback_host_id) {
  NPAT_CHECK_MSG(channel != nullptr, "fleet probe needs a channel");
  auto probe = std::make_unique<PerProbe>(std::move(channel));
  probe->liveness = resilience::LivenessTracker(liveness_);
  probe->state.host_id = fallback_host_id.empty() ? util::format("probe%zu", probes_.size())
                                                  : std::move(fallback_host_id);
  probes_.push_back(std::move(probe));
  NPAT_OBS_COUNT("npat_fleet_probes_total", "Probe channels registered with a FleetCollector", 1);
  return probes_.size() - 1;
}

const ProbeState& FleetCollector::probe(usize index) const {
  NPAT_CHECK_MSG(index < probes_.size(), "fleet probe index out of range");
  return probes_[index]->state;
}

usize FleetCollector::poll(Cycles now) {
  NPAT_OBS_SPAN("fleet.poll");
  clock_ = std::max(clock_, now);
  usize merged = 0;
  for (auto& probe : probes_) {
    merged += collect(*probe);
    finish_poll(*probe);
  }
  samples_merged_ += merged;
  return merged;
}

void FleetCollector::reattach_probe(usize index, std::shared_ptr<util::ByteChannel> channel) {
  NPAT_CHECK_MSG(index < probes_.size(), "fleet probe index out of range");
  NPAT_CHECK_MSG(channel != nullptr, "fleet reattach needs a channel");
  PerProbe& probe = *probes_[index];
  // Fold whatever the dying connection still buffered, then retire its
  // decoder: finish() flushes a frame truncated mid-disconnect into the
  // damage tally instead of leaving it pending forever, and the retiring
  // decoder's tallies carry forward so accounting stays cumulative.
  samples_merged_ += collect(probe);
  finish_poll(probe);
  probe.decoder.finish();
  samples_merged_ += process(probe);
  probe.carried.dropped_frames += probe.decoder.dropped_frames();
  probe.carried.resyncs += probe.decoder.resyncs();
  probe.carried.truncated_flushes += probe.decoder.truncated_flushes();
  probe.channel = std::move(channel);
  probe.decoder = wire::Decoder{};
  ++probe.state.reattaches;
  republish(probe);
  NPAT_OBS_COUNT("npat_fleet_reattaches_total",
                 "Probe channels swapped under a slot after a reconnect", 1);
  NPAT_OBS_INSTANT("fleet.reattach", probe.state.host_id);
  introspect::flight().record(introspect::FlightKind::kReattach, clock_, probe.state.host_id,
                              "channel swapped under the slot");
}

usize FleetCollector::collect(PerProbe& probe) {
  for (;;) {
    const auto bytes = probe.channel->recv(4096);
    if (bytes.empty()) break;
    probe.decoder.feed(bytes);
  }
  // Drained and closed: a partial frame can never complete. Let the
  // decoder flush and count the truncation (same EOF handling as the
  // single-probe GuiCollector).
  if (probe.channel->closed()) probe.decoder.finish();
  return process(probe);
}

usize FleetCollector::process(PerProbe& probe) {
  ProbeState& state = probe.state;
  usize merged = 0;
  while (auto message = probe.decoder.poll()) {
    // Any CRC-valid frame proves the probe is alive, duplicates included —
    // a retransmission is still a working transport.
    probe.liveness.heard(clock_);
    ++state.pipeline.frames;
    if (const auto* envelope = std::get_if<wire::SequencedMsg>(&*message)) {
      state.supervised = true;
      const resilience::Admit admit = probe.ledger.admit(envelope->epoch, envelope->seq);
      if (admit == resilience::Admit::kDuplicate) {
        continue;  // ledger counted it; exactly-once means fold at most once
      }
      if (admit == resilience::Admit::kEpochReset) {
        // A new incarnation took over. Frames of the dead epoch stuck
        // behind a gap will never become contiguous; fold what we hold in
        // sequence order (best effort) before adopting the new numbering.
        merged += flush_pending(probe);
      }
      std::optional<wire::Message> inner = wire::unwrap_sequenced(*envelope);
      if (inner) {
        // An emit-stamped payload observes ingest latency here — decode
        // time — then sheds the annotation so the reorder stage and
        // fold() see the bare data frame.
        if (const auto* stamped = std::get_if<wire::StampedMsg>(&*inner)) {
          observe_ingest(probe, stamped->emit_timestamp);
          std::optional<wire::Message> data = wire::unwrap_stamped(*stamped);
          if (data) {
            inner = std::move(data);
          } else {
            inner.reset();
          }
        }
      }
      if (!inner) {
        // The outer CRC already vouched for these bytes, so a bad inner
        // payload is a malformed sender, not transport damage — but it is
        // still a frame this collector could not use.
        count_unexpected(state);
      } else {
        // Reorder stage: even a frame that is contiguous right now goes
        // through `pending` so delivery order to fold() is always
        // sequence order, not arrival order.
        probe.pending.emplace(envelope->seq, PerProbe::Pending{std::move(*inner), clock_});
      }
      merged += drain_in_order(probe);
    } else if (const auto* stamped = std::get_if<wire::StampedMsg>(&*message)) {
      // A bare stamped frame: an unsupervised (plain memhist::Probe)
      // stream opted into emit stamping without sequence envelopes.
      observe_ingest(probe, stamped->emit_timestamp);
      if (std::optional<wire::Message> data = wire::unwrap_stamped(*stamped)) {
        merged += fold(probe, *data);
      } else {
        count_unexpected(state);
      }
    } else if (std::get_if<wire::Heartbeat>(&*message) != nullptr) {
      state.supervised = true;
      ++state.heartbeats;
    } else if (const auto* resume = std::get_if<wire::Resume>(&*message)) {
      if (resume->role == wire::kResumeProbe) {
        state.supervised = true;
        ++state.resumes;
        probe.ack_due = true;  // reply even when the floor is unchanged
        probe.resume_epoch = resume->epoch;
      } else {
        // A collector-role ack echoed back at a collector is nonsense.
        count_unexpected(state);
      }
    } else {
      merged += fold(probe, *message);
    }
  }
  return merged;
}

usize FleetCollector::drain_in_order(PerProbe& probe) {
  // Folds the contiguous run the ledger floor just certified, in sequence
  // order. A sequence missing from `pending` inside that run was admitted
  // but unusable (unwrap failure, already counted as unexpected) — skip it.
  usize merged = 0;
  while (probe.folded_floor < probe.ledger.floor()) {
    const u32 next = probe.folded_floor + 1;
    auto it = probe.pending.find(next);
    if (it != probe.pending.end()) {
      merged += fold_pending(probe, it->second);
      probe.pending.erase(it);
    }
    probe.folded_floor = next;
  }
  return merged;
}

usize FleetCollector::flush_pending(PerProbe& probe) {
  usize merged = 0;
  for (auto& [seq, pending] : probe.pending) merged += fold_pending(probe, pending);
  probe.pending.clear();
  probe.folded_floor = 0;
  return merged;
}

usize FleetCollector::fold_pending(PerProbe& probe, PerProbe::Pending& pending) {
  observe_dwell(probe, clock_ > pending.decoded_at ? clock_ - pending.decoded_at : 0);
  return fold(probe, pending.message);
}

void FleetCollector::finish_poll(PerProbe& probe) {
  maybe_ack(probe);
  republish(probe);
  const resilience::Liveness verdict = probe.liveness.evaluate(clock_);
  if (verdict != probe.state.liveness) {
    introspect::flight().record(
        introspect::FlightKind::kLivenessChange, clock_, probe.state.host_id,
        util::format("%s->%s", resilience::liveness_name(probe.state.liveness),
                     resilience::liveness_name(verdict)));
  }
  probe.state.liveness = verdict;
}

usize FleetCollector::fold(PerProbe& probe, const wire::Message& message) {
  ProbeState& state = probe.state;
  if (const auto* hello = std::get_if<wire::Hello>(&message)) {
    state.hello_received = true;
    ++state.hellos;
    state.version = hello->version;
    state.node_count = hello->node_count;
    // A v2 probe has no host field; it keeps the fallback name.
    if (!hello->host_id.empty()) state.host_id = hello->host_id;
  } else if (const auto* sample = std::get_if<wire::MonitorSampleMsg>(&message)) {
    if (!state.samples.empty() && sample->nodes.size() != state.samples.front().nodes.size()) {
      // A CRC-valid frame whose shape contradicts the stream so far:
      // merging it would poison every later aggregation, so count it as
      // damage instead.
      count_unexpected(state);
      return 0;
    }
    monitor::Sample merged_sample = monitor::from_wire(*sample);
    if (!state.origin) state.origin = merged_sample.timestamp;
    merged_sample.timestamp = merged_sample.timestamp >= *state.origin
                                  ? merged_sample.timestamp - *state.origin
                                  : 0;
    state.samples.push_back(std::move(merged_sample));
    NPAT_OBS_COUNT("npat_fleet_samples_merged_total",
                   "Monitor samples merged into the fleet view", 1);
    return 1;
  } else if (const auto* table = std::get_if<wire::TaskTableMsg>(&message)) {
    state.registry.merge_wire(*table);
    attribute_orphans(probe);
  } else if (const auto* tasks = std::get_if<wire::TaskSampleMsg>(&message)) {
    fold_task_sample(probe, *tasks);
  } else if (const auto* end = std::get_if<wire::End>(&message)) {
    state.ended = true;
    state.total_cycles = end->total_cycles;
  } else {
    // ThresholdReadings (or future types) are valid v2 frames with no
    // place in a telemetry merge — counted, not silently ignored.
    count_unexpected(state);
  }
  return 0;
}

namespace {

monitor::TaskCounters task_counters_of(const proc::TaskInfo& info,
                                       const wire::TaskSampleRow& row) {
  monitor::TaskCounters t;
  t.pid = info.pid;
  t.tid = info.tid;
  t.node = row.node;
  t.instructions = row.instructions;
  t.cycles = row.cycles;
  t.local_dram = row.local_dram;
  t.remote_dram = row.remote_dram;
  t.remote_hitm = row.remote_hitm;
  t.loads = row.loads;
  t.latency_sum = row.latency_sum;
  t.latency_loads = row.latency_loads;
  t.areas.reserve(row.areas.size());
  for (const wire::TaskAreaCounters& area : row.areas) {
    t.areas.push_back(monitor::TaskArea{area.base, area.samples});
  }
  return t;
}

void sort_tasks(std::vector<monitor::TaskCounters>& tasks) {
  std::sort(tasks.begin(), tasks.end(),
            [](const monitor::TaskCounters& a, const monitor::TaskCounters& b) {
              return std::pair{a.pid, a.tid} < std::pair{b.pid, b.tid};
            });
}

}  // namespace

void FleetCollector::fold_task_sample(PerProbe& probe, const wire::TaskSampleMsg& message) {
  ProbeState& state = probe.state;
  // Task frames ride the same probe clock as node samples, so they share
  // (and may establish) the probe's timestamp origin.
  if (!state.origin) state.origin = message.timestamp;
  const Cycles aligned =
      message.timestamp >= *state.origin ? message.timestamp - *state.origin : 0;
  monitor::TaskSample sample;
  sample.timestamp = aligned;
  sample.tasks.reserve(message.rows.size());
  for (const wire::TaskSampleRow& row : message.rows) {
    const proc::TaskInfo* info = state.registry.find(row.task_id);
    if (info == nullptr) {
      // Unknown id: the TaskTable frame naming it may simply not have
      // arrived yet (reordering, a resync that ate it, a probe announcing
      // lazily). Hold the row for late attribution instead of dropping it
      // silently — and count it in the ledger either way.
      ++state.damage.orphaned_task_rows;
      NPAT_OBS_COUNT("npat_fleet_orphaned_task_rows_total",
                     "v5 task rows that arrived before their TaskTable registration", 1);
      if (probe.orphans.size() >= kMaxOrphanRows) probe.orphans.erase(probe.orphans.begin());
      probe.orphans.push_back(PerProbe::OrphanRow{aligned, row});
      continue;
    }
    sample.tasks.push_back(task_counters_of(*info, row));
  }
  sort_tasks(sample.tasks);
  // Keep the record even when every row orphaned: the frame happened, and
  // late attribution will repopulate it at this timestamp.
  state.task_samples.push_back(std::move(sample));
  NPAT_OBS_COUNT("npat_fleet_task_samples_merged_total",
                 "Per-task telemetry samples merged into the fleet view", 1);
}

void FleetCollector::attribute_orphans(PerProbe& probe) {
  if (probe.orphans.empty()) return;
  ProbeState& state = probe.state;
  std::vector<PerProbe::OrphanRow> still_unknown;
  for (PerProbe::OrphanRow& orphan : probe.orphans) {
    const proc::TaskInfo* info = state.registry.find(orphan.row.task_id);
    if (info == nullptr) {
      still_unknown.push_back(std::move(orphan));
      continue;
    }
    // Re-insert at the sorted timestamp position so the rescued row lands
    // in the sample it was sent with (or a new record if that sample's
    // every row orphaned and the record was evicted meanwhile).
    auto it = std::lower_bound(
        state.task_samples.begin(), state.task_samples.end(), orphan.timestamp,
        [](const monitor::TaskSample& s, Cycles t) { return s.timestamp < t; });
    if (it == state.task_samples.end() || it->timestamp != orphan.timestamp) {
      it = state.task_samples.insert(it, monitor::TaskSample{orphan.timestamp, {}});
    }
    it->tasks.push_back(task_counters_of(*info, orphan.row));
    sort_tasks(it->tasks);
    ++state.damage.orphans_attributed;
    NPAT_OBS_COUNT("npat_fleet_orphans_attributed_total",
                   "Orphaned task rows attributed after late registration", 1);
  }
  probe.orphans = std::move(still_unknown);
}

void FleetCollector::maybe_ack(PerProbe& probe) {
  if (!probe.state.supervised) return;
  const resilience::DeliveryLedger& ledger = probe.ledger;
  u16 epoch;
  u32 floor;
  if (probe.ack_due) {
    // Handshake reply: answer for the epoch the probe announced. If data
    // under that epoch already arrived this poll the ledger has adopted
    // it and the floor is current; otherwise nothing of that incarnation
    // was ever delivered and the floor is zero.
    epoch = probe.resume_epoch;
    floor = epoch == ledger.epoch() ? ledger.floor() : 0;
  } else {
    // Steady-state ack: only when it tells the probe something new.
    epoch = ledger.epoch();
    floor = ledger.floor();
    if (epoch == probe.acked_epoch && floor <= probe.acked_floor) return;
  }
  wire::Resume ack;
  ack.role = wire::kResumeCollector;
  ack.epoch = epoch;
  ack.seq = floor;
  if (probe.channel->send(wire::encode(wire::Message{ack}))) {
    // On failure ack_due stays set: the channel is dying and the probe
    // will redial, so the reply is retried on the next connection.
    probe.ack_due = false;
    probe.acked_epoch = epoch;
    probe.acked_floor = floor;
    ++probe.state.acks_sent;
    NPAT_OBS_COUNT("npat_fleet_acks_sent_total",
                   "Resume acks sent back to supervised probes", 1);
  }
}

void FleetCollector::republish(PerProbe& probe) {
  // Re-publish the framing tallies (decoder plus anything carried over
  // from decoders retired by reattach_probe) so per-probe damage always
  // reconciles exactly with the framing layer, and mirror the ledger and
  // liveness state into the plain-value ProbeState.
  ProbeState& state = probe.state;
  state.damage.dropped_frames = probe.carried.dropped_frames + probe.decoder.dropped_frames();
  state.damage.resyncs = probe.carried.resyncs + probe.decoder.resyncs();
  state.damage.truncated_flushes =
      probe.carried.truncated_flushes + probe.decoder.truncated_flushes();
  const resilience::DeliveryLedger& ledger = probe.ledger;
  state.epoch = ledger.epoch();
  state.seq_floor = ledger.floor();
  state.highest_seq = ledger.highest_seen();
  state.gap_backlog = ledger.gap_backlog();
  state.delivered_frames = ledger.delivered();
  state.duplicate_frames = ledger.duplicates();
  state.epoch_resets = ledger.epoch_resets();

  introspect::PipelineStats& pipeline = state.pipeline;
  pipeline.pending_depth = probe.pending.size();
  pipeline.orphan_depth = probe.orphans.size();
  pipeline.frames_per_mcycle =
      clock_ > 0 ? 1e6 * static_cast<double>(pipeline.frames) / static_cast<double>(clock_) : 0.0;
  if (probe.ingest_hist != nullptr) {
    const introspect::QuantileEstimate p99 =
        introspect::histogram_quantile_estimate(*probe.ingest_hist, 0.99);
    pipeline.ingest_p99 = p99.value;
    pipeline.ingest_p99_overflow = p99.overflow;
  }
  if (obs::enabled()) {
    ensure_metrics(probe);
    probe.pending_gauge->set(static_cast<double>(pipeline.pending_depth));
    probe.orphan_gauge->set(static_cast<double>(pipeline.orphan_depth));
    probe.rate_gauge->set(pipeline.frames_per_mcycle);
    narrate_flight(probe);
  }
}

namespace {

constexpr const char* kPerProbeMetricBases[] = {
    "npat_introspect_ingest_latency_cycles", "npat_introspect_reorder_dwell_cycles",
    "npat_introspect_reorder_depth",         "npat_introspect_orphan_depth",
    "npat_introspect_frames_per_mcycle",
};

}  // namespace

void FleetCollector::ensure_metrics(PerProbe& probe) {
  if (probe.ingest_hist != nullptr && probe.metric_host == probe.state.host_id) return;
  // (Re-)resolve the per-probe labeled series. A late v3 Hello can rename
  // the host; observations already made stay under the fallback name only
  // until the rename is noticed, then the stale series are retired so a
  // Prometheus scrape never keeps reporting a dead host id.
  const std::string old_host = probe.ingest_hist != nullptr ? probe.metric_host : std::string();
  probe.metric_host = probe.state.host_id;
  obs::Registry& registry = obs::metrics();
  const auto name = [&](const char* base) {
    return obs::labeled_name(base, {{"host", probe.metric_host}});
  };
  static const std::vector<double> kLatencyBounds = {0.0,    10.0,    100.0,    1000.0,
                                                     10000.0, 100000.0, 1000000.0, 10000000.0};
  probe.ingest_hist =
      &registry.histogram(name("npat_introspect_ingest_latency_cycles"), kLatencyBounds,
                          "Probe-emit to collector-decode latency of stamped frames");
  probe.reorder_hist =
      &registry.histogram(name("npat_introspect_reorder_dwell_cycles"), kLatencyBounds,
                          "Decode to in-order delivery dwell in the reorder stage");
  probe.pending_gauge = &registry.gauge(name("npat_introspect_reorder_depth"),
                                        "Sequenced frames waiting in the reorder stage");
  probe.orphan_gauge = &registry.gauge(name("npat_introspect_orphan_depth"),
                                       "Task rows held awaiting late registration");
  probe.rate_gauge = &registry.gauge(name("npat_introspect_frames_per_mcycle"),
                                     "Decoded frames per million collector cycles");
  if (!old_host.empty() && old_host != probe.metric_host) retire_metrics(old_host);
}

void FleetCollector::retire_metrics(const std::string& host) {
  // A probe re-handshaked under a new host id: drop the old id's labeled
  // series so the export stops reporting a host that no longer exists —
  // unless a sibling probe still publishes under that label (two probes
  // may legitimately share a host id; their series are shared too).
  for (const auto& other : probes_) {
    if (other->ingest_hist != nullptr && other->metric_host == host) return;
  }
  obs::Registry& registry = obs::metrics();
  for (const char* base : kPerProbeMetricBases) {
    registry.remove(obs::labeled_name(base, {{"host", host}}));
  }
}

void FleetCollector::observe_ingest(PerProbe& probe, Cycles emit_timestamp) {
  // First stamp aligns the probe's emit clock to the collector clock (the
  // same origin-alignment trick sample timestamps use), so latencies are
  // relative to the fastest hop ever seen, immune to clock skew.
  if (!probe.stamp_offset) {
    probe.stamp_offset = static_cast<i64>(emit_timestamp) - static_cast<i64>(clock_);
  }
  const i64 lag =
      static_cast<i64>(clock_) - (static_cast<i64>(emit_timestamp) - *probe.stamp_offset);
  const Cycles latency = lag > 0 ? static_cast<Cycles>(lag) : 0;
  introspect::PipelineStats& pipeline = probe.state.pipeline;
  ++pipeline.stamped_frames;
  ++pipeline.ingest_observations;
  pipeline.ingest_sum += static_cast<double>(latency);
  pipeline.ingest_max = std::max(pipeline.ingest_max, latency);
  if (obs::enabled()) {
    ensure_metrics(probe);
    probe.ingest_hist->observe(static_cast<double>(latency));
  }
}

void FleetCollector::observe_dwell(PerProbe& probe, Cycles dwell) {
  introspect::PipelineStats& pipeline = probe.state.pipeline;
  ++pipeline.reorder_observations;
  pipeline.reorder_sum += static_cast<double>(dwell);
  pipeline.reorder_max = std::max(pipeline.reorder_max, dwell);
  if (obs::enabled()) {
    ensure_metrics(probe);
    probe.reorder_hist->observe(static_cast<double>(dwell));
  }
}

void FleetCollector::narrate_flight(PerProbe& probe) {
  // One flight event per poll per kind, carrying the occurrence delta, so
  // the ring totals reconcile exactly with the damage ledger without a
  // damage storm flooding the ring.
  ProbeState& state = probe.state;
  introspect::FlightRecorder& recorder = introspect::flight();
  const auto narrate = [&](usize current, usize& reported, introspect::FlightKind kind,
                           const char* detail) {
    if (current > reported) {
      recorder.record(kind, clock_, state.host_id, detail, current - reported);
      reported = current;
    }
  };
  ProbeDamage& reported = probe.flight_reported;
  narrate(state.damage.resyncs, reported.resyncs, introspect::FlightKind::kResync,
          "decoder resynchronized on frame magic");
  narrate(state.damage.dropped_frames, reported.dropped_frames,
          introspect::FlightKind::kFrameDrop, "frames dropped by the decoder");
  narrate(state.damage.truncated_flushes, reported.truncated_flushes,
          introspect::FlightKind::kTruncation, "incomplete frame flushed at end of stream");
  narrate(state.damage.unexpected_frames, reported.unexpected_frames,
          introspect::FlightKind::kUnexpectedFrame, "valid frames the collector could not merge");
  narrate(state.damage.orphaned_task_rows, reported.orphaned_task_rows,
          introspect::FlightKind::kOrphanHeld, "task rows held awaiting registration");
  narrate(state.damage.orphans_attributed, reported.orphans_attributed,
          introspect::FlightKind::kOrphanAttributed, "held rows attributed after late TaskTable");
  if (state.epoch_resets > probe.flight_epoch_resets) {
    recorder.record(introspect::FlightKind::kEpochReset, clock_, state.host_id,
                    util::format("ledger adopted epoch %u", state.epoch),
                    state.epoch_resets - probe.flight_epoch_resets);
    probe.flight_epoch_resets = state.epoch_resets;
  }
}

std::vector<introspect::HealthRow> FleetCollector::health_rows() const {
  std::vector<introspect::HealthRow> rows;
  rows.reserve(probes_.size());
  for (const auto& probe : probes_) {
    const ProbeState& state = probe->state;
    introspect::HealthRow row;
    row.host = state.host_id;
    row.supervised = state.supervised;
    row.liveness = resilience::liveness_name(state.liveness);
    row.ended = state.ended;
    row.pipeline = state.pipeline;
    row.delivered = state.delivered_frames;
    row.duplicates = state.duplicate_frames;
    row.gap_backlog = state.gap_backlog;
    row.dropped = state.damage.dropped_frames;
    row.resyncs = state.damage.resyncs;
    row.truncated = state.damage.truncated_flushes;
    row.unexpected = state.damage.unexpected_frames;
    row.orphaned = state.damage.orphaned_task_rows;
    rows.push_back(std::move(row));
  }
  return rows;
}

FleetView FleetCollector::view(usize window_samples) const {
  NPAT_OBS_SPAN("fleet.view");
  FleetView out;
  out.hosts.reserve(probes_.size());
  for (const auto& probe : probes_) {
    const ProbeState& state = probe->state;
    const usize take =
        window_samples == 0 ? state.samples.size() : std::min(state.samples.size(), window_samples);
    const std::span<const monitor::Sample> tail(state.samples.data() + state.samples.size() - take,
                                                take);
    HostRow row;
    row.host_id = state.host_id;
    row.hello_received = state.hello_received;
    row.ended = state.ended;
    row.samples_total = state.samples.size();
    row.window = monitor::aggregate(tail);
    const usize task_take = window_samples == 0
                                ? state.task_samples.size()
                                : std::min(state.task_samples.size(), window_samples);
    row.tasks = monitor::aggregate_tasks(std::span<const monitor::TaskSample>(
        state.task_samples.data() + state.task_samples.size() - task_take, task_take));
    row.damage = state.damage;
    row.supervised = state.supervised;
    row.liveness = state.liveness;
    row.duplicates = state.duplicate_frames;

    out.span = std::max(out.span, row.window.span());
    out.samples += row.window.samples;
    const monitor::NodeStats host_total = row.window.total();
    out.total.samples += host_total.samples;
    out.total.instructions += host_total.instructions;
    out.total.cycles += host_total.cycles;
    out.total.local_dram += host_total.local_dram;
    out.total.remote_dram += host_total.remote_dram;
    out.total.remote_hitm += host_total.remote_hitm;
    out.total.imc_reads += host_total.imc_reads;
    out.total.imc_writes += host_total.imc_writes;
    out.total.qpi_flits += host_total.qpi_flits;
    out.total.resident_bytes += host_total.resident_bytes;
    out.hosts.push_back(std::move(row));
  }
  return out;
}

}  // namespace npat::fleet
