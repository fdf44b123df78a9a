#include "perf/load_latency.hpp"

#include <gtest/gtest.h>

#include "sim/presets.hpp"
#include "util/check.hpp"
#include "util/check.hpp"

namespace npat::perf {
namespace {

sim::MachineConfig quiet() {
  auto config = sim::dual_socket_small(1);
  config.memory.jitter_fraction = 0.0;
  return config;
}

TEST(LoadLatency, CountsQualifyingLoads) {
  sim::Machine machine(quiet());
  LoadLatencySession session(machine);
  session.arm(100, 1);
  // Cold DRAM loads (latency ~190) qualify; repeated L1 hits (4) do not.
  machine.load(0, sim::make_paddr(0, 0), 0x10000, page_of(0x10000));  // cold -> counts
  machine.load(0, sim::make_paddr(0, 0), 0x10000, page_of(0x10000));  // L1 hit -> no
  machine.load(0, sim::make_paddr(0, kPageBytes), 0x20000, page_of(0x20000));  // cold -> counts
  const auto reading = session.disarm();
  EXPECT_EQ(reading.loads_at_or_above, 2u);
  EXPECT_EQ(reading.samples.size(), 2u);
  EXPECT_GT(reading.enabled_cycles, 0u);
}

TEST(LoadLatency, OnlyOneThresholdAtATime) {
  // The hardware restriction that forces Memhist to time-cycle.
  sim::Machine machine(quiet());
  LoadLatencySession session(machine);
  session.arm(50);
  EXPECT_THROW(session.arm(100), CheckError);
  session.disarm();
  EXPECT_NO_THROW(session.arm(100));
  session.disarm();
}

TEST(LoadLatency, ThresholdFiltersByLatency) {
  sim::Machine machine(quiet());

  LoadLatencySession low(machine);
  low.arm(8, 1);  // catches L2/L3/DRAM but not L1 hits
  machine.load(0, sim::make_paddr(0, 0), 0x10000, page_of(0x10000));  // cold DRAM
  machine.load(0, sim::make_paddr(0, 0), 0x10000, page_of(0x10000));  // L1 hit
  const auto low_reading = low.disarm();
  EXPECT_EQ(low_reading.loads_at_or_above, 1u);

  LoadLatencySession high(machine);
  high.arm(100000, 1);  // nothing is this slow
  machine.load(0, sim::make_paddr(0, kPageBytes), 0x20000, page_of(0x20000));
  EXPECT_EQ(high.disarm().loads_at_or_above, 0u);
}

TEST(LoadLatency, SamplesCarryDataSource) {
  sim::Machine machine(quiet());
  LoadLatencySession session(machine);
  session.arm(100, 1);
  machine.load(0, sim::make_paddr(1, 0), 0x30000, page_of(0x30000));  // remote node
  const auto reading = session.disarm();
  ASSERT_EQ(reading.samples.size(), 1u);
  EXPECT_EQ(reading.samples[0].source, sim::DataSource::kRemoteDram);
}

TEST(LoadLatency, AggregatesAcrossCores) {
  auto config = sim::dual_socket_small(2);
  config.memory.jitter_fraction = 0.0;
  sim::Machine machine(config);
  LoadLatencySession session(machine);
  session.arm(100, 1);
  machine.load(0, sim::make_paddr(0, 0), 0x10000, page_of(0x10000));
  machine.load(3, sim::make_paddr(1, 0), 0x20000, page_of(0x20000));
  const auto reading = session.disarm();
  EXPECT_EQ(reading.loads_at_or_above, 2u);
}

TEST(LoadLatency, DisarmWithoutArmThrows) {
  sim::Machine machine(quiet());
  LoadLatencySession session(machine);
  EXPECT_THROW(session.disarm(), CheckError);
}

}  // namespace
}  // namespace npat::perf

namespace npat::perf {
namespace {

TEST(LoadLatency, SourceFilterIsolatesRemoteLoads) {
  sim::Machine machine(quiet());
  LoadLatencySession session(machine);
  session.arm(1, 1, sim::DataSource::kRemoteDram);
  machine.load(0, sim::make_paddr(0, 0), 0x10000, page_of(0x10000));  // local DRAM: filtered out
  machine.load(0, sim::make_paddr(1, 0), 0x20000, page_of(0x20000));  // remote DRAM: counted
  machine.load(0, sim::make_paddr(1, 0), 0x20000, page_of(0x20000));  // L1 hit: filtered out
  const auto reading = session.disarm();
  EXPECT_EQ(reading.loads_at_or_above, 1u);
  ASSERT_EQ(reading.samples.size(), 1u);
  EXPECT_EQ(reading.samples[0].source, sim::DataSource::kRemoteDram);
}

TEST(LoadLatency, SourceFilterComposesWithThreshold) {
  sim::Machine machine(quiet());
  LoadLatencySession session(machine);
  // Threshold higher than any remote latency: nothing passes both gates.
  session.arm(100000, 1, sim::DataSource::kRemoteDram);
  machine.load(0, sim::make_paddr(1, 0), 0x20000, page_of(0x20000));
  EXPECT_EQ(session.disarm().loads_at_or_above, 0u);
}

}  // namespace
}  // namespace npat::perf
