#include "fleet/collector.hpp"

#include <gtest/gtest.h>

#include "memhist/remote.hpp"
#include "monitor/export.hpp"
#include "util/check.hpp"

namespace npat::fleet {
namespace {

namespace wire = memhist::wire;

monitor::Sample make_sample(Cycles timestamp, usize nodes, u64 salt = 0) {
  monitor::Sample sample;
  sample.timestamp = timestamp;
  sample.footprint_bytes = 1000 + salt;
  for (usize n = 0; n < nodes; ++n) {
    monitor::NodeSample node;
    node.instructions = 500 + 10 * n + salt;
    node.cycles = 1000;
    node.local_dram = 40 + n;
    node.remote_dram = 10 + n + salt % 7;
    node.remote_hitm = n;
    node.imc_reads = 64;
    node.imc_writes = 32;
    node.qpi_flits = 128 + 8 * n;
    node.resident_bytes = 4096 * (n + 1);
    sample.nodes.push_back(node);
  }
  return sample;
}

TEST(FleetCollector, MergesThreeProbesWithHostIds) {
  FleetCollector collector;
  std::vector<memhist::Probe> probes;
  const char* ids[] = {"alpha", "beta", "gamma"};
  for (usize h = 0; h < 3; ++h) {
    auto pair = util::make_loopback_pair();
    collector.add_probe(pair.b);
    probes.emplace_back(pair.a);
    probes.back().send_hello(2, ids[h]);
  }
  for (usize h = 0; h < 3; ++h) {
    for (Cycles t = 1; t <= 5; ++t) {
      probes[h].send_sample(monitor::to_wire(make_sample(t * 100, 2, h)));
    }
    probes[h].send_end(500);
  }

  EXPECT_EQ(collector.poll(), 15u);
  ASSERT_EQ(collector.probe_count(), 3u);
  for (usize h = 0; h < 3; ++h) {
    const ProbeState& state = collector.probe(h);
    EXPECT_EQ(state.host_id, ids[h]);
    EXPECT_EQ(state.version, wire::kProtocolVersion);
    EXPECT_EQ(state.node_count, 2u);
    EXPECT_TRUE(state.hello_received);
    EXPECT_TRUE(state.ended);
    EXPECT_EQ(state.total_cycles, 500u);
    EXPECT_EQ(state.samples.size(), 5u);
    EXPECT_EQ(state.damage, ProbeDamage{});
  }
  EXPECT_EQ(collector.samples_merged(), 15u);
}

TEST(FleetCollector, V2StreamKeepsFallbackHostId) {
  FleetCollector collector;
  auto pair = util::make_loopback_pair();
  collector.add_probe(pair.b, "rack7");
  // A legacy v2 probe: its Hello has no host field at all.
  pair.a->send(wire::encode(wire::Hello{2, 4, {}}));
  pair.a->send(wire::encode(monitor::to_wire(make_sample(50, 4))));
  collector.poll();

  const ProbeState& state = collector.probe(0);
  EXPECT_TRUE(state.hello_received);
  EXPECT_EQ(state.version, 2u);
  EXPECT_EQ(state.host_id, "rack7");
  EXPECT_EQ(state.samples.size(), 1u);
}

TEST(FleetCollector, DefaultFallbackNamesProbesByIndex) {
  FleetCollector collector;
  auto first = util::make_loopback_pair();
  auto second = util::make_loopback_pair();
  collector.add_probe(first.b);
  collector.add_probe(second.b);
  EXPECT_EQ(collector.probe(0).host_id, "probe0");
  EXPECT_EQ(collector.probe(1).host_id, "probe1");
}

TEST(FleetCollector, AlignsSkewedClocksToCommonOrigin) {
  FleetCollector collector;
  auto early = util::make_loopback_pair();
  auto late = util::make_loopback_pair();
  collector.add_probe(early.b);
  collector.add_probe(late.b);
  memhist::Probe probe_early(early.a);
  memhist::Probe probe_late(late.a);

  // Same telemetry, but the second host's clock is 1e9 cycles ahead.
  for (Cycles t = 1; t <= 4; ++t) {
    probe_early.send_sample(monitor::to_wire(make_sample(t * 1000, 1)));
    probe_late.send_sample(monitor::to_wire(make_sample(1000000000 + t * 1000, 1)));
  }
  collector.poll();

  const ProbeState& state_early = collector.probe(0);
  const ProbeState& state_late = collector.probe(1);
  ASSERT_EQ(state_early.samples.size(), 4u);
  ASSERT_EQ(state_late.samples.size(), 4u);
  for (usize i = 0; i < 4; ++i) {
    EXPECT_EQ(state_early.samples[i].timestamp, state_late.samples[i].timestamp);
  }
  EXPECT_EQ(state_early.samples.front().timestamp, 0u);
  EXPECT_EQ(state_late.origin, Cycles{1000001000});

  const FleetView view = collector.view();
  EXPECT_EQ(view.hosts[0].window.start, view.hosts[1].window.start);
  EXPECT_EQ(view.hosts[0].window.end, view.hosts[1].window.end);
}

TEST(FleetCollector, CountsUnexpectedButValidFrames) {
  FleetCollector collector;
  auto pair = util::make_loopback_pair();
  collector.add_probe(pair.b);
  memhist::Probe probe(pair.a);
  probe.send_hello(1, "host");
  // Histogram readings are valid protocol frames with no place in a
  // telemetry merge.
  probe.send_reading(memhist::ThresholdReading{8, 100, 1000, 1});
  probe.send_reading(memhist::ThresholdReading{16, 50, 1000, 1});
  probe.send_sample(monitor::to_wire(make_sample(10, 1)));
  collector.poll();

  const ProbeState& state = collector.probe(0);
  EXPECT_EQ(state.samples.size(), 1u);
  EXPECT_EQ(state.damage.unexpected_frames, 2u);
  EXPECT_EQ(state.damage.dropped_frames, 0u);
}

TEST(FleetCollector, NodeCountChangeMidStreamCountedNotMerged) {
  FleetCollector collector;
  auto pair = util::make_loopback_pair();
  collector.add_probe(pair.b);
  memhist::Probe probe(pair.a);
  probe.send_sample(monitor::to_wire(make_sample(10, 2)));
  probe.send_sample(monitor::to_wire(make_sample(20, 3)));  // contradicts the stream
  probe.send_sample(monitor::to_wire(make_sample(30, 2)));
  collector.poll();

  const ProbeState& state = collector.probe(0);
  EXPECT_EQ(state.samples.size(), 2u);
  EXPECT_EQ(state.damage.unexpected_frames, 1u);
  // view() aggregates without throwing despite the poisoned frame.
  EXPECT_EQ(collector.view().hosts[0].window.samples, 2u);
}

TEST(FleetCollector, EofTruncationFlushedAndAttributed) {
  FleetCollector collector;
  auto pair = util::make_loopback_pair();
  collector.add_probe(pair.b);
  memhist::Probe probe(pair.a);
  probe.send_hello(1, "trunc");
  probe.send_sample(monitor::to_wire(make_sample(10, 1)));
  // A final frame cut off mid-flight, then the connection dies.
  const auto frame = wire::encode(monitor::to_wire(make_sample(20, 1)));
  pair.a->send(std::vector<u8>(frame.begin(), frame.begin() + 9));
  pair.a->close();
  collector.poll();

  const ProbeState& state = collector.probe(0);
  EXPECT_EQ(state.samples.size(), 1u);
  EXPECT_EQ(state.damage.truncated_flushes, 1u);
  EXPECT_EQ(state.damage.dropped_frames, 1u);
  EXPECT_FALSE(state.ended);
}

TEST(FleetCollector, DamageReconcilesWithDecoderTallies) {
  // Corrupt one probe's stream; the collector's per-probe damage must
  // mirror the wire decoder's own tallies (here cross-checked through the
  // same channel-level fault counters the fuzz tests use).
  FleetCollector collector;
  auto clean_pair = util::make_loopback_pair();
  auto dirty_pair = util::make_loopback_pair();
  collector.add_probe(clean_pair.b, "clean");
  collector.add_probe(dirty_pair.b, "dirty");
  memhist::Probe clean_probe(clean_pair.a);
  util::FaultyChannel::Config faults;
  faults.corrupt_probability = 0.5;
  faults.seed = 11;
  auto dirty_tx = std::make_shared<util::FaultyChannel>(dirty_pair.a, faults);
  memhist::Probe dirty_probe(dirty_tx);

  for (Cycles t = 1; t <= 40; ++t) {
    clean_probe.send_sample(monitor::to_wire(make_sample(t * 10, 2)));
    dirty_probe.send_sample(monitor::to_wire(make_sample(t * 10, 2)));
  }
  // Close so a corrupted length byte on the final frame (which leaves the
  // decoder waiting for bytes that never come) is flushed and counted.
  clean_pair.a->close();
  dirty_tx->close();
  collector.poll();

  const ProbeState& clean_state = collector.probe(0);
  const ProbeState& dirty_state = collector.probe(1);
  EXPECT_EQ(clean_state.damage, ProbeDamage{});
  EXPECT_EQ(clean_state.samples.size(), 40u);
  // Every corrupted frame is lost, and only corrupted frames are lost.
  EXPECT_GT(dirty_tx->corrupted_sends(), 0u);
  EXPECT_EQ(dirty_state.samples.size(), 40u - dirty_tx->corrupted_sends());
  // A flipped CRC/payload byte shows up as a drop; a flipped magic byte is
  // swallowed by resync instead. Together they cover every corruption, and
  // drops never exceed it.
  EXPECT_LE(dirty_state.damage.dropped_frames, dirty_tx->corrupted_sends());
  EXPECT_GE(dirty_state.damage.dropped_frames + dirty_state.damage.resyncs,
            dirty_tx->corrupted_sends());
  // Damage stays attributed to the probe that suffered it.
  EXPECT_EQ(clean_state.damage.dropped_frames, 0u);
}

TEST(FleetCollector, ViewAggregatesAcrossHosts) {
  FleetCollector collector;
  std::vector<memhist::Probe> probes;
  for (usize h = 0; h < 2; ++h) {
    auto pair = util::make_loopback_pair();
    collector.add_probe(pair.b);
    probes.emplace_back(pair.a);
    for (Cycles t = 1; t <= 3; ++t) {
      probes.back().send_sample(monitor::to_wire(make_sample(t * 100, 2)));
    }
  }
  collector.poll();

  const FleetView view = collector.view();
  ASSERT_EQ(view.hosts.size(), 2u);
  monitor::NodeStats expected;
  for (const HostRow& row : view.hosts) {
    const monitor::NodeStats host_total = row.window.total();
    expected.instructions += host_total.instructions;
    expected.local_dram += host_total.local_dram;
    expected.remote_dram += host_total.remote_dram;
    expected.qpi_flits += host_total.qpi_flits;
  }
  EXPECT_EQ(view.total.instructions, expected.instructions);
  EXPECT_EQ(view.total.local_dram, expected.local_dram);
  EXPECT_EQ(view.total.remote_dram, expected.remote_dram);
  EXPECT_EQ(view.total.qpi_flits, expected.qpi_flits);
  EXPECT_EQ(view.samples, 6u);
  EXPECT_EQ(view.span, view.hosts[0].window.span());
}

TEST(FleetCollector, WindowLimitsToMostRecentSamples) {
  FleetCollector collector;
  auto pair = util::make_loopback_pair();
  collector.add_probe(pair.b);
  memhist::Probe probe(pair.a);
  for (Cycles t = 1; t <= 10; ++t) {
    probe.send_sample(monitor::to_wire(make_sample(t * 100, 1)));
  }
  collector.poll();

  const FleetView windowed = collector.view(4);
  EXPECT_EQ(windowed.hosts[0].window.samples, 4u);
  EXPECT_EQ(windowed.hosts[0].samples_total, 10u);
  EXPECT_EQ(windowed.hosts[0].window.start, 600u);  // aligned: 700 - origin(100)
  EXPECT_EQ(windowed.hosts[0].window.end, 900u);
}

TEST(FleetCollector, NullChannelRejected) {
  FleetCollector collector;
  EXPECT_THROW(collector.add_probe(nullptr), CheckError);
  EXPECT_THROW(collector.probe(0), CheckError);
}

}  // namespace
}  // namespace npat::fleet
