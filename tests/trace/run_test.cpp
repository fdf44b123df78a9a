#include <gtest/gtest.h>

#include "sim/presets.hpp"
#include "trace/runner.hpp"
#include "workloads/mlc_remote.hpp"
#include "workloads/parallel_sort.hpp"

namespace npat::trace {
namespace {

struct Snapshot {
  RunResult result;
  sim::CounterBlock totals;
  std::vector<sim::CounterBlock> uncore;
  Cycles max_clock = 0;
};

Snapshot snapshot(const sim::Machine& machine, RunResult result) {
  Snapshot out;
  out.result = std::move(result);
  out.totals = machine.aggregate_counters();
  for (sim::NodeId node = 0; node < machine.nodes(); ++node) {
    out.uncore.push_back(machine.uncore_counters(node));
  }
  out.max_clock = machine.max_clock();
  return out;
}

void expect_identical(const Snapshot& a, const Snapshot& b) {
  EXPECT_EQ(a.result.duration, b.result.duration);
  EXPECT_EQ(a.result.scheduler_slices, b.result.scheduler_slices);
  EXPECT_EQ(a.max_clock, b.max_clock);
  for (const auto& info : sim::all_events()) {
    EXPECT_EQ(a.totals[info.event], b.totals[info.event]) << sim::event_name(info.event);
  }
  ASSERT_EQ(a.uncore.size(), b.uncore.size());
  for (usize node = 0; node < a.uncore.size(); ++node) {
    EXPECT_EQ(a.uncore[node].values, b.uncore[node].values) << "node " << node;
  }
}

Program sort_program() {
  workloads::ParallelSortParams params;
  params.elements = 1 << 12;
  params.threads = 4;
  return workloads::parallel_sort_program(params);
}

Program chase_program(const sim::Topology& topology) {
  workloads::MlcParams params = workloads::mlc_remote(topology, MiB(2));
  params.chase_steps = 20000;
  return workloads::mlc_program(params);
}

/// The hand-built sequence every run site used before trace::Run: a fresh
/// machine, an address space over its topology and a runner over both.
Snapshot hand_built(const sim::MachineConfig& config, const Program& program,
                    RunnerConfig runner_config) {
  sim::Machine machine(config);
  os::AddressSpace space(machine.topology());
  Runner runner(machine, space, runner_config);
  RunResult result = runner.run(program);
  return snapshot(machine, std::move(result));
}

Snapshot through_run(const sim::MachineConfig& config, const Program& program,
                     RunnerConfig runner_config) {
  sim::Machine machine(config);
  trace::Run run(machine, runner_config);
  RunResult result = run.run(program);
  return snapshot(machine, std::move(result));
}

TEST(Run, MatchesHandBuiltSequenceOnSort) {
  const auto config = sim::dual_socket_small(2);
  const RunnerConfig runner_config{.affinity = os::AffinityPolicy::kScatter, .seed = 7};
  expect_identical(hand_built(config, sort_program(), runner_config),
                   through_run(config, sort_program(), runner_config));
}

TEST(Run, MatchesHandBuiltSequenceOnMlc) {
  // DRAM jitter stays on: the RNG draws must line up too.
  const auto config = sim::dual_socket_small(2);
  expect_identical(hand_built(config, chase_program(config.topology), {}),
                   through_run(config, chase_program(config.topology), {}));
}

TEST(Run, ConstructionResetsAUsedMachine) {
  sim::Machine machine(sim::dual_socket_small(2));
  {
    trace::Run warm(machine);
    warm.run(sort_program());
  }
  ASSERT_GT(machine.max_clock(), 0u);
  ASSERT_GT(machine.aggregate_counters()[sim::Event::kInstructions], 0u);

  trace::Run run(machine);
  EXPECT_EQ(machine.max_clock(), 0u);
  for (const auto& info : sim::all_events()) {
    EXPECT_EQ(machine.aggregate_counters()[info.event], 0u) << sim::event_name(info.event);
  }
  EXPECT_EQ(run.space().resident_bytes(), 0u);
}

TEST(Run, RunnerDrivesTheRunsOwnSpaceAndMachine) {
  sim::Machine machine(sim::dual_socket_small(1));
  trace::Run run(machine, {.seed = 99});
  EXPECT_EQ(&run.runner().address_space(), &run.space());
  EXPECT_EQ(&run.runner().machine(), &machine);
  EXPECT_EQ(run.runner().config().seed, 99u);
}

TEST(Run, TwoRunsMatchTwoRunnerCallsOnOneRunner) {
  // A warm-up program followed by the measured one on the same space.
  const auto config = sim::dual_socket_small(2);

  sim::Machine hand_machine(config);
  os::AddressSpace space(hand_machine.topology());
  Runner runner(hand_machine, space);
  runner.run(chase_program(config.topology));
  const Snapshot expected = snapshot(hand_machine, runner.run(sort_program()));

  sim::Machine machine(config);
  trace::Run run(machine);
  run.run(chase_program(config.topology));
  const Snapshot actual = snapshot(machine, run.run(sort_program()));

  expect_identical(expected, actual);
  EXPECT_EQ(space.resident_bytes(), run.space().resident_bytes());
}

}  // namespace
}  // namespace npat::trace
