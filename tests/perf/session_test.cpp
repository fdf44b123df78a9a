#include "perf/session.hpp"

#include <gtest/gtest.h>

#include "perf/registry.hpp"
#include "sim/presets.hpp"
#include "util/check.hpp"
#include "util/check.hpp"

namespace npat::perf {
namespace {

TEST(Planner, FixedEventsRideAlongFree) {
  const std::vector<sim::Event> events = {
      sim::Event::kCycles, sim::Event::kInstructions, sim::Event::kRefCycles,
      sim::Event::kL1dMiss};
  const auto groups = plan_event_groups(events);
  ASSERT_EQ(groups.size(), 1u);
  EXPECT_EQ(groups[0].size(), 4u);
}

TEST(Planner, SplitsCoreEventsByRegisterCount) {
  std::vector<sim::Event> events;
  for (const auto& info : sim::all_events()) {
    if (info.scope == sim::EventScope::kCore) events.push_back(info.event);
  }
  const auto groups = plan_event_groups(events, 4, 4);
  // Each group holds at most 4 core events.
  usize total = 0;
  for (const auto& group : groups) {
    EXPECT_LE(group.size(), 4u);
    total += group.size();
  }
  EXPECT_EQ(total, events.size());
  EXPECT_EQ(groups.size(), (events.size() + 3) / 4);
}

TEST(Planner, CoreAndUncorePoolsIndependent) {
  const std::vector<sim::Event> events = {
      sim::Event::kL1dMiss, sim::Event::kL2Miss, sim::Event::kL3Miss,
      sim::Event::kBranchMisses, sim::Event::kUncImcReads, sim::Event::kUncImcWrites};
  const auto groups = plan_event_groups(events, 4, 4);
  // 4 core + 2 uncore fit into a single group.
  ASSERT_EQ(groups.size(), 1u);
  EXPECT_EQ(groups[0].size(), 6u);
}

TEST(Planner, WholePlatformNeedsMultipleGroups) {
  const auto groups = plan_event_groups(available_events());
  EXPECT_GE(groups.size(), 8u);  // ~40 core events / 4 registers
  for (const auto& group : groups) {
    EXPECT_NO_THROW(check_group_fits(group, kProgrammableCoreRegisters,
                                     kProgrammableUncoreRegisters));
  }
}

TEST(Session, RejectsOversizedGroup) {
  sim::Machine machine(sim::uma_single_node(1));
  std::vector<sim::Event> too_many = {
      sim::Event::kL1dMiss, sim::Event::kL2Miss, sim::Event::kL3Miss,
      sim::Event::kBranchMisses, sim::Event::kDtlbMiss};  // 5 core events
  EXPECT_THROW(CountingSession(machine, too_many), CheckError);
}

TEST(Session, MeasuresExactDeltas) {
  sim::Machine machine(sim::uma_single_node(1));
  machine.execute(0, 500);  // pre-session work must not count

  CountingSession session(machine, {sim::Event::kInstructions, sim::Event::kL1dMiss});
  session.start();
  machine.execute(0, 1000);
  machine.load(0, sim::make_paddr(0, 0), 0x10000, page_of(0x10000));
  const auto values = session.stop();

  ASSERT_EQ(values.size(), 2u);
  EXPECT_EQ(values[0].event, sim::Event::kInstructions);
  EXPECT_DOUBLE_EQ(values[0].value, 1001.0);  // 1000 compute + 1 load
  EXPECT_DOUBLE_EQ(values[1].value, 1.0);
  EXPECT_FALSE(values[0].estimated);
}

TEST(Session, StartStopStateChecked) {
  sim::Machine machine(sim::uma_single_node(1));
  CountingSession session(machine, {sim::Event::kCycles});
  EXPECT_THROW(session.stop(), CheckError);
  session.start();
  EXPECT_THROW(session.start(), CheckError);
}

TEST(Session, UncoreEventsMeasured) {
  auto config = sim::dual_socket_small(1);
  config.memory.jitter_fraction = 0.0;
  sim::Machine machine(config);
  CountingSession session(machine, {sim::Event::kUncImcReads});
  session.start();
  for (u64 i = 0; i < 10; ++i) {
    const VirtAddr vaddr = 0x10000 + i * kPageBytes;
    machine.load(0, sim::make_paddr(0, i * kPageBytes), vaddr, page_of(vaddr));
  }
  const auto values = session.stop();
  EXPECT_GE(values[0].value, 10.0);  // demand misses + prefetches
}

}  // namespace
}  // namespace npat::perf

namespace npat::perf {
namespace {

TEST(Session, CpuSetRestrictsCoreEvents) {
  auto config = sim::dual_socket_small(2);
  config.memory.jitter_fraction = 0.0;
  sim::Machine machine(config);

  CountingSession core0_only(machine, {sim::Event::kInstructions}, CpuSet{0});
  CountingSession all(machine, {sim::Event::kInstructions});
  core0_only.start();
  all.start();
  machine.execute(0, 100);
  machine.execute(2, 900);  // other socket
  EXPECT_DOUBLE_EQ(core0_only.stop()[0].value, 100.0);
  EXPECT_DOUBLE_EQ(all.stop()[0].value, 1000.0);
}

TEST(Session, CpuSetCoversOwningSocketUncore) {
  auto config = sim::dual_socket_small(2);
  config.memory.jitter_fraction = 0.0;
  sim::Machine machine(config);

  // Attach to node 1's cores only; DRAM reads on node 0 are invisible.
  CountingSession node1(machine, {sim::Event::kUncImcReads}, CpuSet{2, 3});
  node1.start();
  machine.load(0, sim::make_paddr(0, 0), 0x10000, page_of(0x10000));  // node 0 traffic
  const double node1_reads = node1.stop()[0].value;
  EXPECT_DOUBLE_EQ(node1_reads, 0.0);

  CountingSession node0(machine, {sim::Event::kUncImcReads}, CpuSet{0});
  node0.start();
  machine.load(0, sim::make_paddr(0, kPageBytes), 0x20000, page_of(0x20000));
  EXPECT_GE(node0.stop()[0].value, 1.0);
}

TEST(Session, InvalidCpuRejected) {
  sim::Machine machine(sim::uma_single_node(2));
  EXPECT_THROW(CountingSession(machine, {sim::Event::kCycles}, CpuSet{99}), CheckError);
}

}  // namespace
}  // namespace npat::perf
