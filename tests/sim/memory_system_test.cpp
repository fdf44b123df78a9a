#include "sim/memory_system.hpp"

#include <gtest/gtest.h>

#include "sim/topology.hpp"

namespace npat::sim {
namespace {

MemoryConfig quiet_config() {
  MemoryConfig config;
  config.jitter_fraction = 0.0;  // deterministic latency for assertions
  return config;
}

TEST(Memory, LocalLatencyNearBase) {
  const Topology topo = make_fully_connected(2, 1);
  MemorySystem memory(topo, quiet_config(), 1);
  const auto result = memory.access(0, 0, 0);
  EXPECT_EQ(result.hops, 0u);
  EXPECT_EQ(result.latency, quiet_config().local_dram_latency);
}

TEST(Memory, RemoteAddsPerHopLatency) {
  const Topology topo = make_twisted_cube(1);
  MemorySystem memory(topo, quiet_config(), 1);
  const auto one_hop = memory.access(0, 1, 0);
  const auto two_hops = memory.access(0, 5, 0);  // other quad, not the partner
  EXPECT_EQ(one_hop.hops, 1u);
  EXPECT_EQ(two_hops.hops, 2u);
  const MemoryConfig config = quiet_config();
  EXPECT_EQ(one_hop.latency, config.local_dram_latency + config.per_hop_latency);
  EXPECT_EQ(two_hops.latency, config.local_dram_latency + 2 * config.per_hop_latency);
}

TEST(Memory, ContentionRaisesLatency) {
  const Topology topo = make_fully_connected(1, 4);
  MemoryConfig config = quiet_config();
  config.bandwidth_window = 1000;
  config.service_cycles = 10;
  MemorySystem memory(topo, config, 1);

  // Saturate the first window: 200 accesses x 10 service = 2000 > 1000.
  for (int i = 0; i < 200; ++i) memory.access(0, 0, 500);
  // Next window sees the high utilization of the previous one.
  const auto contended = memory.access(0, 0, 2000);
  EXPECT_GT(contended.utilization, 0.5);
  EXPECT_GT(contended.latency, config.local_dram_latency);
}

TEST(Memory, IdleWindowsDecayUtilization) {
  const Topology topo = make_fully_connected(1, 1);
  MemoryConfig config = quiet_config();
  config.bandwidth_window = 1000;
  config.service_cycles = 10;
  MemorySystem memory(topo, config, 1);
  for (int i = 0; i < 300; ++i) memory.access(0, 0, 100);
  // Far in the future: pressure must have decayed.
  const auto later = memory.access(0, 0, 100000);
  EXPECT_LT(later.utilization, 0.2);
}

TEST(Memory, JitterStaysBounded) {
  const Topology topo = make_fully_connected(2, 1);
  MemoryConfig config;
  config.jitter_fraction = 0.06;
  MemorySystem memory(topo, config, 99);
  for (int i = 0; i < 1000; ++i) {
    const auto result = memory.access(0, 1, static_cast<Cycles>(i) * 5000);
    const double base =
        static_cast<double>(config.local_dram_latency + config.per_hop_latency);
    EXPECT_GT(static_cast<double>(result.latency), base * 0.5);
    EXPECT_LT(static_cast<double>(result.latency), base * 2.5);
  }
}

TEST(Memory, ClearResetsWindows) {
  const Topology topo = make_fully_connected(1, 1);
  MemoryConfig config = quiet_config();
  config.bandwidth_window = 100;
  config.service_cycles = 50;
  MemorySystem memory(topo, config, 1);
  for (int i = 0; i < 50; ++i) memory.access(0, 0, 50);
  memory.clear();
  // Without the clear, the next window would report the saturated one.
  EXPECT_DOUBLE_EQ(memory.access(0, 0, 150).utilization, 0.0);
}

}  // namespace
}  // namespace npat::sim
