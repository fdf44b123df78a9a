#include "fleet_job.hpp"

#include <iterator>
#include <memory>
#include <string>

#include "fleet/collector.hpp"
#include "memhist/remote.hpp"
#include "resilience/probe.hpp"
#include "util/channel.hpp"
#include "util/random.hpp"
#include "util/strings.hpp"

namespace npatbench {

namespace {

using npat::Cycles;
namespace wire = npat::memhist::wire;
namespace util = npat::util;

constexpr Cycles kRoundCycles = 500;   // collector clock advance per round
constexpr Cycles kSampleCycles = 500;  // probe clock advance per sample
constexpr usize kDrainLimit = 512;     // rounds allowed for supervised acks
constexpr usize kPeriods[] = {2, 4, 8, 16};

enum class Kind { kPlain, kStamped, kCorrupting, kSupervised };

/// One probe in eight is lossy — half supervised over links that drop and
/// cut frames mid-way, half plain over links that drop and corrupt them —
/// one in eight is stamped, the rest are plain on clean links. Corruption
/// stays off the supervised links: a frame both corrupted and cut would be
/// counted twice by the injectors the reconciliation identity reads.
Kind kind_of(usize probe) {
  switch (probe % 16) {
    case 0:
      return Kind::kSupervised;
    case 8:
      return Kind::kCorrupting;
    case 1:
    case 9:
      return Kind::kStamped;
    default:
      return Kind::kPlain;
  }
}

/// Send every period_of(h)-th round, starting at round phase_of(h).
usize period_of(usize probe) { return kPeriods[(probe / 8) % std::size(kPeriods)]; }
usize phase_of(usize probe) { return (probe / 8 / std::size(kPeriods)) % period_of(probe); }

struct Link {
  Kind kind = Kind::kPlain;
  usize period = 1;
  usize phase = 0;
  usize cursor = 0;  // samples sent so far
  usize samples = 0;  // samples this probe sends in total
  bool end_sent = false;
  usize slot = 0;  // collector probe index
  // Plain and stamped probes.
  std::shared_ptr<util::ByteChannel> tx;
  std::unique_ptr<npat::memhist::Probe> probe;
  // Supervised probes, and the fault injectors of every lossy link (each
  // connection of a supervised probe), which the reconciliation reads.
  std::unique_ptr<npat::resilience::SupervisedProbe> supervised;
  std::vector<std::shared_ptr<util::DisconnectingChannel>> cuts;
  std::vector<std::shared_ptr<util::FaultyChannel>> faults;
  usize connections = 0;

  usize transmissions() const {
    return supervised ? supervised->data_transmissions() + supervised->control_transmissions()
                      : probe->frames_sent();
  }
  bool done() const {
    return end_sent && (!supervised || supervised->fully_acked());
  }
};

u64 mix(u64 hash, u64 value) {
  hash ^= value;
  hash *= 1099511628211ull;
  return hash;
}

bool same_node(const npat::monitor::NodeSample& got, const wire::MonitorNodeCounters& sent) {
  return got.instructions == sent.instructions && got.cycles == sent.cycles &&
         got.local_dram == sent.local_dram && got.remote_dram == sent.remote_dram &&
         got.remote_hitm == sent.remote_hitm && got.imc_reads == sent.imc_reads &&
         got.imc_writes == sent.imc_writes && got.qpi_flits == sent.qpi_flits &&
         got.resident_bytes == sent.resident_bytes;
}

bool same_sample(const npat::monitor::Sample& got, const wire::MonitorSampleMsg& sent) {
  if (got.footprint_bytes != sent.footprint_bytes || got.nodes.size() != sent.nodes.size()) {
    return false;
  }
  for (usize n = 0; n < sent.nodes.size(); ++n) {
    if (!same_node(got.nodes[n], sent.nodes[n])) return false;
  }
  return true;
}

/// The merged timeline is the sent one, in order, with timestamps shifted
/// to the first merged sample. A plain link that loses frames loses those
/// samples for good, so there the merged timeline may skip sent samples;
/// everywhere else it holds every sample exactly once.
bool timeline_matches(const std::vector<wire::MonitorSampleMsg>& sent, const Link& link,
                      const npat::fleet::ProbeState& state) {
  const bool lossless = link.kind != Kind::kCorrupting;
  if (lossless && (state.samples.size() != sent.size() || !state.ended)) return false;
  if (state.samples.empty()) return true;
  usize first = 0;
  while (first < sent.size() && !same_sample(state.samples[0], sent[first])) ++first;
  usize previous = first;
  for (usize i = 0; i < state.samples.size(); ++i) {
    const npat::monitor::Sample& got = state.samples[i];
    if (got.timestamp % kSampleCycles != 0) return false;
    const usize k = first + static_cast<usize>(got.timestamp / kSampleCycles);
    if (k >= sent.size() || (i > 0 && k <= previous) || (lossless && k != i)) return false;
    if (!same_sample(got, sent[k])) return false;
    previous = k;
  }
  return true;
}

/// Every accepted send lands in exactly one bucket: delivered, duplicate,
/// control, dropped (in transit, corrupted, or cut and flushed by the
/// decoder) or discarded from a stalled burst.
bool reconciles(const Link& link, const npat::fleet::ProbeState& state) {
  const u64 sent = link.transmissions();
  u64 dropped = 0;
  u64 discarded = 0;
  for (const auto& fault : link.faults) {
    dropped += fault->dropped_sends() + fault->corrupted_sends();
  }
  for (const auto& cut : link.cuts) discarded += cut->stall_discards();
  if (link.supervised) {
    // Cut frames reach the decoder as truncated prefixes and are counted
    // there; nothing else is damaged on these links.
    dropped += state.damage.dropped_frames;
    return sent == state.delivered_frames + state.duplicate_frames + state.hellos +
                       state.resumes + state.heartbeats + dropped + discarded +
                       state.damage.unexpected_frames;
  }
  // Every corrupted frame is lost, CRC-dropped or swallowed by resync,
  // so the injector's tally is the exact loss.
  return sent == state.samples.size() + (state.ended ? 1u : 0u) + state.hellos + dropped +
                     state.damage.unexpected_frames;
}

}  // namespace

FleetSpec fleet_ingest_spec(u64 seed, JobSize size) {
  FleetSpec spec;
  spec.probes = size == JobSize::kFull ? 2000 : 200;
  spec.rounds = size == JobSize::kFull ? 96 : 32;
  spec.nodes = 2;
  spec.seed = seed;
  return spec;
}

wire::MonitorSampleMsg make_sample(u64 seed, usize probe, usize index, u32 nodes) {
  util::Xoshiro256ss rng(seed ^ (probe * 0x9e3779b97f4a7c15ull) ^ (index * 0xbf58476d1ce4e5b9ull));
  wire::MonitorSampleMsg sample;
  sample.timestamp = 1000 + static_cast<Cycles>(index) * kSampleCycles;
  sample.footprint_bytes = (64u << 20) + rng.below(16u << 20);
  for (u32 node = 0; node < nodes; ++node) {
    wire::MonitorNodeCounters row;
    row.instructions = 1000 + rng.below(5000);
    row.cycles = 2000 + rng.below(8000);
    row.local_dram = rng.below(500);
    row.remote_dram = rng.below(200);
    row.remote_hitm = rng.below(50);
    row.imc_reads = rng.below(800);
    row.imc_writes = rng.below(400);
    row.qpi_flits = rng.below(1000);
    row.resident_bytes = (16u << 20) + rng.below(4u << 20);
    sample.nodes.push_back(row);
  }
  return sample;
}

FleetJobResult run_fleet_job(const FleetSpec& spec, Tracer* tracer) {
  FleetJobResult result;
  // The inputs: every probe's sample stream, generated before anything is
  // timed.
  std::vector<std::vector<wire::MonitorSampleMsg>> inputs(spec.probes);
  for (usize h = 0; h < spec.probes; ++h) {
    const usize period = period_of(h);
    const usize count = (spec.rounds - phase_of(h) + period - 1) / period;
    for (usize k = 0; k < count; ++k) inputs[h].push_back(make_sample(spec.seed, h, k, spec.nodes));
  }

  const Clock::time_point setup_start = Clock::now();
  npat::fleet::FleetCollector collector;
  std::vector<std::unique_ptr<Link>> links;
  links.reserve(spec.probes);
  for (usize h = 0; h < spec.probes; ++h) {
    auto link = std::make_unique<Link>();
    link->kind = kind_of(h);
    link->period = period_of(h);
    link->phase = phase_of(h);
    link->samples = inputs[h].size();
    const std::string host = util::format("probe-%05zu", h);
    if (link->kind == Kind::kSupervised) {
      Link* raw = link.get();
      auto dial = [raw, h, &spec, &collector, host]() -> std::shared_ptr<util::ByteChannel> {
        auto pair = util::make_loopback_pair();
        if (raw->connections == 0) {
          raw->slot = collector.add_probe(pair.b, host);
        } else {
          collector.reattach_probe(raw->slot, pair.b);
        }
        const usize attempt = raw->connections++;
        util::DisconnectingChannel::Config cut;
        cut.cut_after_sends = 10;
        cut.cut_delivery_bytes = 9;  // shorter than any frame
        raw->cuts.push_back(std::make_shared<util::DisconnectingChannel>(pair.a, cut));
        util::FaultyChannel::Config faults;
        faults.drop_probability = 0.02;
        faults.seed = spec.seed + h * 101 + attempt;
        raw->faults.push_back(std::make_shared<util::FaultyChannel>(raw->cuts.back(), faults));
        return raw->faults.back();
      };
      npat::resilience::SupervisedProbeConfig config;
      config.host_id = host;
      config.node_count = spec.nodes;
      // An idle probe heartbeats; the heartbeats count towards the next cut,
      // whose redial retransmits whatever the collector's floor lacks.
      config.heartbeat_interval = kRoundCycles * 2;
      config.resume_timeout = kRoundCycles * 4;
      config.backoff = {.initial = kRoundCycles / 4 + 1,
                        .max = kRoundCycles * 4,
                        .multiplier = 2.0,
                        .jitter = 0.5};
      config.seed = spec.seed + 9000 + h;
      link->supervised =
          std::make_unique<npat::resilience::SupervisedProbe>(std::move(config), std::move(dial));
      link->supervised->pump(0);  // first dial and hello
    } else {
      auto pair = util::make_loopback_pair();
      link->slot = collector.add_probe(pair.b, host);
      link->tx = pair.a;
      if (link->kind == Kind::kCorrupting) {
        util::FaultyChannel::Config faults;
        faults.drop_probability = 0.02;
        faults.corrupt_probability = 0.02;
        faults.seed = spec.seed + h * 101;
        link->faults.push_back(std::make_shared<util::FaultyChannel>(pair.a, faults));
        link->tx = link->faults.back();
      }
      link->probe = std::make_unique<npat::memhist::Probe>(link->tx);
      if (link->kind == Kind::kStamped) link->probe->set_stamp_interval(3);
      link->probe->send_hello(spec.nodes, host);
    }
    links.push_back(std::move(link));
  }
  collector.poll(0);  // takes in the hellos: the links are up
  result.setup_s = seconds_since(setup_start);

  const Clock::time_point job_start = Clock::now();
  usize pending = 0;
  for (usize round = 0; round < spec.rounds + kDrainLimit; ++round) {
    const Cycles now = static_cast<Cycles>(round) * kRoundCycles;
    usize ready = 0;
    for (usize h = 0; h < spec.probes; ++h) {
      Link& link = *links[h];
      const usize before = link.transmissions();
      const bool due = link.cursor < link.samples && round % link.period == link.phase;
      const bool end_due = !link.end_sent && link.cursor == link.samples;
      if (link.supervised) {
        Tracer::Span span(tracer, "resilience", "SupervisedProbe::send");
        link.supervised->pump(now);
        if (due) {
          link.supervised->send_sample(inputs[h][link.cursor++], now);
        } else if (end_due) {
          link.supervised->send_end(link.samples * kSampleCycles, now);
          link.end_sent = true;
        }
      } else if (due || end_due) {
        Tracer::Span span(tracer, "memhist", "Probe::send");
        link.probe->set_clock(now);
        if (due) {
          link.probe->send_sample(inputs[h][link.cursor++]);
        } else {
          link.probe->send_end(link.samples * kSampleCycles);
          link.tx->close();
          link.end_sent = true;
        }
      }
      if (link.transmissions() != before) ++ready;
    }
    const Clock::time_point poll_start = Clock::now();
    {
      Tracer::Span span(tracer, "fleet", "FleetCollector::poll");
      collector.poll(now);
    }
    result.poll_ms.push_back(
        std::chrono::duration<double, std::milli>(Clock::now() - poll_start).count());
    result.ready.push_back(ready);
    pending = 0;
    for (const auto& link : links) pending += link->done() ? 0 : 1;
    if (pending == 0 && round >= spec.rounds) break;
  }
  result.job_s = seconds_since(job_start);

  result.digest = 14695981039346656037ull;
  for (usize h = 0; h < spec.probes; ++h) {
    const Link& link = *links[h];
    const npat::fleet::ProbeState& state = collector.probe(link.slot);
    result.frames += state.pipeline.frames;
    result.duplicates += state.duplicate_frames;
    result.damage += state.damage.total();
    result.samples_sent += link.samples;
    if (link.supervised) result.redials += link.supervised->reconnects();
    result.probe_ok.push_back(pending == 0 && reconciles(link, state) &&
                              timeline_matches(inputs[h], link, state));
    for (const npat::monitor::Sample& sample : state.samples) {
      result.digest = mix(result.digest, sample.timestamp);
      result.digest = mix(result.digest, sample.footprint_bytes);
      for (const npat::monitor::NodeSample& node : sample.nodes) {
        result.digest = mix(result.digest, node.instructions);
        result.digest = mix(result.digest, node.cycles);
        result.digest = mix(result.digest, node.local_dram + node.remote_dram + node.remote_hitm);
        result.digest = mix(result.digest, node.imc_reads + node.imc_writes + node.qpi_flits);
        result.digest = mix(result.digest, node.resident_bytes);
      }
    }
    result.digest = mix(result.digest, state.ended ? state.total_cycles : ~0ull);
  }
  return result;
}

}  // namespace npatbench
