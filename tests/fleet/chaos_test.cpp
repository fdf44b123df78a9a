// The chaos fleet: one collector merges plain v3 probes over drop+corrupt
// links, supervised v4 probes through mid-frame cuts and redials, and
// emit-stamped v6 probes. Every probe's observable state — merged
// timeline, damage ledger, delivery-ledger mirror, liveness, acks and
// ingest/dwell accounting — folds into one FNV-1a digest pinned below,
// so a change to merge order or to any effect fails the test. The
// FleetMetrics cases check the per-host labeled series across renames.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <memory>
#include <string>
#include <vector>

#include "fleet/collector.hpp"
#include "memhist/remote.hpp"
#include "obs/obs.hpp"
#include "resilience/probe.hpp"
#include "util/channel.hpp"
#include "util/strings.hpp"

namespace npat::fleet {
namespace {

namespace wire = memhist::wire;

wire::MonitorSampleMsg make_sample(usize probe, usize index, u32 nodes) {
  wire::MonitorSampleMsg sample;
  sample.timestamp = 1000 + static_cast<Cycles>(index) * 500;
  sample.footprint_bytes = (1u << 20) + probe * 4096 + index;
  for (u32 n = 0; n < nodes; ++n) {
    wire::MonitorNodeCounters row;
    row.instructions = 500 + 10 * n + probe;
    row.cycles = 1000 + index;
    row.local_dram = 40 + n;
    row.remote_dram = 10 + n + probe % 7;
    row.remote_hitm = n;
    row.imc_reads = 64;
    row.imc_writes = 32;
    row.qpi_flits = 128 + 8 * n;
    row.resident_bytes = 4096 * (n + 1);
    sample.nodes.push_back(row);
  }
  return sample;
}

class Fnv {
 public:
  void mix(u64 value) {
    hash_ ^= value;
    hash_ *= 1099511628211ull;
  }
  void mix(double value) { mix(std::bit_cast<u64>(value)); }
  void mix(const std::string& text) {
    mix(static_cast<u64>(text.size()));
    for (const char c : text) mix(static_cast<u64>(static_cast<unsigned char>(c)));
  }
  u64 value() const noexcept { return hash_; }

 private:
  u64 hash_ = 14695981039346656037ull;
};

void digest_probe(Fnv& fnv, const ProbeState& state) {
  fnv.mix(state.host_id);
  fnv.mix(u64{state.version});
  fnv.mix(u64{state.node_count});
  fnv.mix(u64{state.hello_received});
  fnv.mix(u64{state.ended});
  fnv.mix(state.total_cycles);
  fnv.mix(state.origin.value_or(~u64{0}));
  fnv.mix(static_cast<u64>(state.samples.size()));
  for (const monitor::Sample& sample : state.samples) {
    fnv.mix(sample.timestamp);
    fnv.mix(sample.footprint_bytes);
    for (const monitor::NodeSample& node : sample.nodes) {
      fnv.mix(node.instructions);
      fnv.mix(node.cycles);
      fnv.mix(node.local_dram);
      fnv.mix(node.remote_dram);
      fnv.mix(node.remote_hitm);
      fnv.mix(node.imc_reads);
      fnv.mix(node.imc_writes);
      fnv.mix(node.qpi_flits);
      fnv.mix(node.resident_bytes);
    }
  }
  fnv.mix(static_cast<u64>(state.task_samples.size()));
  const ProbeDamage& damage = state.damage;
  for (const usize count : {damage.dropped_frames, damage.resyncs, damage.truncated_flushes,
                            damage.unexpected_frames, damage.orphaned_task_rows,
                            damage.orphans_attributed}) {
    fnv.mix(static_cast<u64>(count));
  }
  fnv.mix(u64{state.supervised});
  fnv.mix(u64{state.epoch});
  fnv.mix(u64{state.seq_floor});
  fnv.mix(u64{state.highest_seq});
  fnv.mix(static_cast<u64>(state.gap_backlog));
  for (const u64 count : {state.delivered_frames, state.duplicate_frames, state.epoch_resets,
                          state.heartbeats, state.hellos, state.resumes, state.acks_sent}) {
    fnv.mix(count);
  }
  fnv.mix(static_cast<u64>(state.reattaches));
  fnv.mix(static_cast<u64>(state.liveness));
  const introspect::PipelineStats& pipeline = state.pipeline;
  fnv.mix(pipeline.frames);
  fnv.mix(pipeline.stamped_frames);
  fnv.mix(pipeline.ingest_observations);
  fnv.mix(pipeline.ingest_sum);
  fnv.mix(pipeline.ingest_max);
  fnv.mix(pipeline.reorder_observations);
  fnv.mix(pipeline.reorder_sum);
  fnv.mix(pipeline.reorder_max);
  fnv.mix(static_cast<u64>(pipeline.pending_depth));
  fnv.mix(static_cast<u64>(pipeline.orphan_depth));
  fnv.mix(pipeline.frames_per_mcycle);
}

struct ChaosOutcome {
  u64 digest = 0;
  usize damage = 0;  // dropped + resyncs + truncated, all probes
  u64 delivered = 0;
  u64 stamped = 0;
};

/// Replays a deterministic chaos fleet and digests every probe.
ChaosOutcome run_chaos_fleet(usize probes, usize samples) {
  constexpr u32 kNodes = 2;
  constexpr usize kBatch = 4;
  FleetCollector collector;

  struct PlainLink {
    std::shared_ptr<util::FaultyChannel> tx;
    std::unique_ptr<memhist::Probe> probe;
    usize cursor = 0;
    bool ended = false;
  };
  struct SupLink {
    std::unique_ptr<resilience::SupervisedProbe> probe;
    usize slot = 0;
    usize connections = 0;
    usize cursor = 0;
    bool end_sent = false;
  };
  std::vector<PlainLink> plain(probes);
  std::vector<std::unique_ptr<SupLink>> supervised(probes);

  for (usize h = 0; h < probes; ++h) {
    const std::string host = util::format("chaos%02zu", h);
    if (h % 3 == 1) {  // supervised v4 with reconnect chaos
      auto link = std::make_unique<SupLink>();
      SupLink* raw = link.get();
      auto dial = [raw, h, &collector, host]() -> std::shared_ptr<util::ByteChannel> {
        auto pair = util::make_loopback_pair();
        if (raw->connections == 0) {
          raw->slot = collector.add_probe(pair.b, host);
        } else {
          collector.reattach_probe(raw->slot, pair.b);
        }
        const usize attempt = raw->connections++;
        util::DisconnectingChannel::Config cut;
        cut.cut_after_sends = 8;
        cut.cut_delivery_bytes = 9;
        auto cut_channel = std::make_shared<util::DisconnectingChannel>(pair.a, cut);
        util::FaultyChannel::Config faults;
        faults.drop_probability = 0.05;
        faults.seed = 77 + h * 101 + attempt;
        return std::make_shared<util::FaultyChannel>(cut_channel, faults);
      };
      resilience::SupervisedProbeConfig probe_config;
      probe_config.host_id = host;
      probe_config.node_count = kNodes;
      probe_config.heartbeat_interval = 2000;
      probe_config.resume_timeout = 1000;
      probe_config.backoff = {.initial = 64, .max = 1000, .multiplier = 2.0, .jitter = 0.5};
      probe_config.seed = 9000 + h;
      link->probe =
          std::make_unique<resilience::SupervisedProbe>(std::move(probe_config), std::move(dial));
      supervised[h] = std::move(link);
    } else {
      auto pair = util::make_loopback_pair();
      util::FaultyChannel::Config faults;
      faults.drop_probability = h % 3 == 0 ? 0.05 : 0.0;
      faults.corrupt_probability = h % 3 == 0 ? 0.05 : 0.0;
      faults.seed = 177 + h * 101;
      auto tx = std::make_shared<util::FaultyChannel>(pair.a, faults);
      collector.add_probe(pair.b, host);
      PlainLink& link = plain[h];
      link.tx = tx;
      link.probe = std::make_unique<memhist::Probe>(tx);
      if (h % 3 == 2) link.probe->set_stamp_interval(3);  // stamped v6
      link.probe->send_hello(kNodes, host);
    }
  }

  Cycles wall = 0;
  const usize data_rounds = (samples + kBatch - 1) / kBatch;
  for (usize round = 0; round < data_rounds + 96; ++round) {
    bool busy = false;
    for (usize h = 0; h < probes; ++h) {
      if (h % 3 == 1) {
        SupLink& link = *supervised[h];
        link.probe->pump(wall);
        for (usize i = 0; i < kBatch && link.cursor < samples; ++i, ++link.cursor) {
          const auto sample = make_sample(h, link.cursor, kNodes);
          wall = std::max(wall, sample.timestamp);
          link.probe->send_sample(sample, wall);
        }
        if (link.cursor >= samples && !link.end_sent) {
          link.probe->send_end(1000 + samples * 500, wall);
          link.end_sent = true;
        }
        if (!(link.end_sent && link.probe->fully_acked())) busy = true;
      } else {
        PlainLink& link = plain[h];
        for (usize i = 0; i < kBatch && link.cursor < samples; ++i, ++link.cursor) {
          const auto sample = make_sample(h, link.cursor, kNodes);
          wall = std::max(wall, sample.timestamp);
          link.probe->set_clock(sample.timestamp);
          link.probe->send_sample(sample);
        }
        if (link.cursor < samples) {
          busy = true;
        } else if (!link.ended) {
          link.probe->send_end(1000 + samples * 500);
          link.tx->close();
          link.ended = true;
        }
      }
    }
    collector.poll(wall);
    if (!busy && round >= data_rounds) break;
    wall += 500;
  }

  ChaosOutcome outcome;
  Fnv fnv;
  fnv.mix(collector.clock());
  fnv.mix(static_cast<u64>(collector.samples_merged()));
  for (usize h = 0; h < probes; ++h) {
    const ProbeState& state = collector.probe(h);
    digest_probe(fnv, state);
    outcome.damage +=
        state.damage.dropped_frames + state.damage.resyncs + state.damage.truncated_flushes;
    outcome.delivered += state.delivered_frames;
    outcome.stamped += state.pipeline.stamped_frames;
  }
  outcome.digest = fnv.value();
  return outcome;
}

// Pinned while a threaded ingest path still existed beside this one; the
// same fleet matched 1, 2, 3, 7 and 8 decode workers frame for frame.
TEST(FleetChaos, ChaosFleetDigestIsPinned) {
  const ChaosOutcome outcome = run_chaos_fleet(24, 12);
  // The chaos must actually bite, or the pinned digest proves little.
  EXPECT_GT(outcome.damage, 0u);
  EXPECT_GT(outcome.delivered, 0u);
  EXPECT_GT(outcome.stamped, 0u);
  EXPECT_EQ(outcome.digest, 0xca02aefc281cec48ull) << util::format("digest 0x%016llx",
                                                    static_cast<unsigned long long>(outcome.digest));
}

TEST(FleetChaos, SmallFleetDigestIsPinned) {
  const ChaosOutcome outcome = run_chaos_fleet(4, 6);
  EXPECT_EQ(outcome.digest, 0x018dff481820a158ull) << util::format("digest 0x%016llx",
                                                    static_cast<unsigned long long>(outcome.digest));
}

TEST(FleetMetrics, RehandshakeRetiresStaleHostSeries) {
  obs::EnabledGuard on(true);
  FleetCollector collector;
  auto pair = util::make_loopback_pair();
  collector.add_probe(pair.b, "retire-old");
  memhist::Probe probe(pair.a);
  probe.send_hello(1, "retire-old");
  probe.send_sample(make_sample(0, 0, 1));
  collector.poll(100);
  EXPECT_NE(obs::metrics().prometheus_text().find("host=\"retire-old\""), std::string::npos);

  // The probe re-handshakes under a new host id: every series labeled
  // with the old id must leave the registry, or a Prometheus scrape keeps
  // reporting a host that no longer exists.
  probe.send_hello(1, "retire-new");
  probe.send_sample(make_sample(0, 1, 1));
  collector.poll(200);
  const std::string text = obs::metrics().prometheus_text();
  EXPECT_EQ(text.find("host=\"retire-old\""), std::string::npos);
  EXPECT_NE(text.find("host=\"retire-new\""), std::string::npos);
  EXPECT_EQ(collector.probe(0).hellos, 2u);
}

TEST(FleetMetrics, SharedHostLabelSurvivesSiblingRename) {
  obs::EnabledGuard on(true);
  FleetCollector collector;
  auto pair_a = util::make_loopback_pair();
  auto pair_b = util::make_loopback_pair();
  collector.add_probe(pair_a.b, "retire-shared");
  collector.add_probe(pair_b.b, "retire-shared");
  memhist::Probe probe_a(pair_a.a);
  memhist::Probe probe_b(pair_b.a);
  probe_a.send_hello(1, "retire-shared");
  probe_b.send_hello(1, "retire-shared");
  collector.poll(100);

  // Probe A renames; probe B still publishes under the shared label, so
  // the series must stay.
  probe_a.send_hello(1, "retire-solo");
  collector.poll(200);
  const std::string text = obs::metrics().prometheus_text();
  EXPECT_NE(text.find("host=\"retire-shared\""), std::string::npos);
  EXPECT_NE(text.find("host=\"retire-solo\""), std::string::npos);
}

}  // namespace
}  // namespace npat::fleet
