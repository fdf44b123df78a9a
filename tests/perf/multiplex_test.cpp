#include "perf/multiplex.hpp"

#include <gtest/gtest.h>

#include "perf/registry.hpp"
#include "sim/presets.hpp"
#include "util/check.hpp"

namespace npat::perf {
namespace {

struct Fixture {
  Fixture() {
    config = sim::uma_single_node(1);
    config.memory.jitter_fraction = 0.0;
  }
  sim::MachineConfig config;
};

trace::SimTask steady_work(trace::ThreadContext& ctx) {
  const VirtAddr base = ctx.alloc(1 << 20);
  for (int round = 0; round < 40; ++round) {
    for (usize i = 0; i < (1u << 20) / kCacheLineBytes; i += 4) {
      co_await ctx.load(base + i * kCacheLineBytes);
    }
    co_await ctx.compute(5000);
  }
}

TEST(Multiplex, RotatesThroughGroups) {
  Fixture f;
  sim::Machine machine(f.config);
  trace::Run run(machine);
  MultiplexedSession session(machine, run.runner(), available_events(), 20000);
  EXPECT_GE(session.group_count(), 8u);

  session.start();
  run.run(trace::Program::single(steady_work));
  const auto values = session.stop();
  EXPECT_GT(session.rotations(), session.group_count());

  // Every event got a value; non-fixed ones are scaled estimates.
  ASSERT_EQ(values.size(), sim::kEventCount);
  bool any_estimated = false;
  for (const auto& value : values) any_estimated |= value.estimated;
  EXPECT_TRUE(any_estimated);
}

TEST(Multiplex, EstimatesNearTruthForSteadyWorkload) {
  // For a steady-state workload, scaled estimates should land within tens
  // of percent of the exact per-run counts.
  Fixture f;

  // Exact reference run.
  sim::Machine machine(f.config);
  {
    trace::Run run(machine, {.seed = 1});
    CountingSession exact(machine, {sim::Event::kL1dMiss});
    exact.start();
    run.run(trace::Program::single(steady_work));
    const double truth = exact.stop()[0].value;

    trace::Run run2(machine, {.seed = 1});
    MultiplexedSession session(machine, run2.runner(), available_events(), 30000);
    session.start();
    run2.run(trace::Program::single(steady_work));
    const auto estimates = session.stop();

    double estimated = -1;
    for (const auto& value : estimates) {
      if (value.event == sim::Event::kL1dMiss) estimated = value.value;
    }
    ASSERT_GE(estimated, 0.0);
    EXPECT_GT(truth, 0.0);
    EXPECT_NEAR(estimated / truth, 1.0, 0.5);
  }
}

TEST(Multiplex, StopWithoutStartThrows) {
  Fixture f;
  sim::Machine machine(f.config);
  trace::Run run(machine);
  MultiplexedSession session(machine, run.runner(), {sim::Event::kCycles}, 1000);
  EXPECT_THROW(session.stop(), CheckError);
}

}  // namespace
}  // namespace npat::perf
