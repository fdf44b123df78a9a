#include "trace/runner.hpp"

#include <gtest/gtest.h>

#include "sim/presets.hpp"
#include "util/check.hpp"

namespace npat::trace {
namespace {

sim::MachineConfig small_config() {
  auto config = sim::dual_socket_small(2);
  config.memory.jitter_fraction = 0.0;
  return config;
}

struct Fixture {
  sim::Machine machine{small_config()};
  os::AddressSpace space{machine.topology()};
};

SimTask touch_n_lines(ThreadContext& ctx, usize lines) {
  const VirtAddr base = ctx.alloc(lines * kCacheLineBytes);
  for (usize i = 0; i < lines; ++i) {
    co_await ctx.store(base + i * kCacheLineBytes);
  }
}

SubTask touch_lines_sub(ThreadContext& ctx) {
  const VirtAddr base = ctx.alloc(64 * kCacheLineBytes);
  for (usize i = 0; i < 64; ++i) {
    co_await ctx.store(base + i * kCacheLineBytes);
  }
}

TEST(Runner, SingleThreadRunsToCompletion) {
  Fixture f;
  Runner runner(f.machine, f.space);
  const auto result = runner.run(Program::single(
      [](ThreadContext& ctx) { return touch_n_lines(ctx, 100); }));
  EXPECT_GT(result.duration, 0u);
  EXPECT_EQ(f.machine.core_counters(0)[sim::Event::kStoresRetired], 100u);
}

TEST(Runner, ThreadsRunOnAffinityCores) {
  Fixture f;
  RunnerConfig config;
  config.affinity = os::AffinityPolicy::kScatter;
  Runner runner(f.machine, f.space, config);
  runner.run(Program::homogeneous(
      2, [](ThreadContext& ctx) { return touch_n_lines(ctx, 50); }));
  // Scatter: thread 0 -> core 0 (node 0), thread 1 -> core 2 (node 1).
  EXPECT_EQ(f.machine.core_counters(0)[sim::Event::kStoresRetired], 50u);
  EXPECT_EQ(f.machine.core_counters(2)[sim::Event::kStoresRetired], 50u);
}

TEST(Runner, FirstTouchLandsOnLocalNode) {
  Fixture f;
  RunnerConfig config;
  config.affinity = os::AffinityPolicy::kScatter;
  Runner runner(f.machine, f.space, config);
  runner.run(Program::homogeneous(2, [](ThreadContext& ctx) -> SimTask {
    const VirtAddr base = ctx.alloc(4 * kPageBytes);
    for (usize p = 0; p < 4; ++p) co_await ctx.store(base + p * kPageBytes);
  }));
  const auto pages = f.space.pages_per_node();
  EXPECT_EQ(pages[0], 4u);
  EXPECT_EQ(pages[1], 4u);
}

TEST(Runner, BarrierSynchronizesClocks) {
  Fixture f;
  Runner runner(f.machine, f.space);
  // Thread 0 does much more work before the barrier; thread 1 must wait.
  auto body = [](ThreadContext& ctx) -> SimTask {
    if (ctx.index() == 0) {
      co_await ctx.compute(100000);
    } else {
      co_await ctx.compute(10);
    }
    co_await ctx.barrier(0);
    ctx.phase_mark(ctx.index());
  };
  const auto result = runner.run(Program::homogeneous(2, body));
  ASSERT_EQ(result.phase_marks.size(), 2u);
  // Both threads pass the barrier at (nearly) the same simulated time.
  const Cycles t0 = result.phase_marks[0].timestamp;
  const Cycles t1 = result.phase_marks[1].timestamp;
  const Cycles diff = t0 > t1 ? t0 - t1 : t1 - t0;
  EXPECT_LT(diff, 5000u);
}

TEST(Runner, BarrierGeneratesAtomics) {
  Fixture f;
  Runner runner(f.machine, f.space);
  runner.run(Program::homogeneous(4, [](ThreadContext& ctx) -> SimTask {
    co_await ctx.barrier(0);
    co_await ctx.barrier(1);
  }));
  u64 atomics = 0;
  for (u32 core = 0; core < f.machine.cores(); ++core) {
    atomics += f.machine.core_counters(core)[sim::Event::kAtomicOps];
  }
  EXPECT_EQ(atomics, 8u);  // 4 threads x 2 barriers
}

TEST(Runner, SamplersFireAtInterval) {
  Fixture f;
  Runner runner(f.machine, f.space);
  std::vector<Cycles> fires;
  runner.add_sampler(10000, [&](Cycles now) { fires.push_back(now); });
  runner.run(Program::single([](ThreadContext& ctx) -> SimTask {
    co_await ctx.compute(200000);  // ~100k cycles at IPC 2
  }));
  ASSERT_GE(fires.size(), 9u);
  for (usize i = 1; i < fires.size(); ++i) {
    EXPECT_EQ(fires[i] - fires[i - 1], 10000u);
  }
}

TEST(Runner, SubTaskComposition) {
  Fixture f;
  Runner runner(f.machine, f.space);
  runner.run(Program::single([](ThreadContext& ctx) -> SimTask {
    co_await touch_lines_sub(ctx);
    co_await ctx.compute(10);
  }));
  EXPECT_EQ(f.machine.core_counters(0)[sim::Event::kStoresRetired], 64u);
}

TEST(Runner, PhaseMarksRecorded) {
  Fixture f;
  Runner runner(f.machine, f.space);
  const auto result = runner.run(Program::single([](ThreadContext& ctx) -> SimTask {
    co_await ctx.compute(100);
    ctx.phase_mark(7);
    co_await ctx.compute(100);
    ctx.phase_mark(8);
  }));
  ASSERT_EQ(result.phase_marks.size(), 2u);
  EXPECT_EQ(result.phase_marks[0].id, 7u);
  EXPECT_LT(result.phase_marks[0].timestamp, result.phase_marks[1].timestamp);
}

TEST(Runner, ExceptionInBodyPropagates) {
  Fixture f;
  Runner runner(f.machine, f.space);
  EXPECT_THROW(runner.run(Program::single([](ThreadContext& ctx) -> SimTask {
                 co_await ctx.compute(1);
                 throw std::runtime_error("boom");
               })),
               std::runtime_error);
}

TEST(Runner, RngIsPerThreadDeterministic) {
  Fixture f;
  std::vector<u64> draws;
  {
    Runner runner(f.machine, f.space);
    runner.run(Program::homogeneous(2, [&](ThreadContext& ctx) -> SimTask {
      draws.push_back(ctx.rng()());
      co_return;
    }));
  }
  EXPECT_NE(draws[0], draws[1]);  // per-thread streams differ

  f.machine.reset();
  os::AddressSpace fresh(f.machine.topology());
  std::vector<u64> draws2;
  Runner runner2(f.machine, fresh);
  runner2.run(Program::homogeneous(2, [&](ThreadContext& ctx) -> SimTask {
    draws2.push_back(ctx.rng()());
    co_return;
  }));
  EXPECT_EQ(draws, draws2);  // same seed -> same streams
}

TEST(Runner, FreeInvalidatesTlb) {
  Fixture f;
  Runner runner(f.machine, f.space);
  runner.run(Program::single([&f](ThreadContext& ctx) -> SimTask {
    const VirtAddr a = ctx.alloc(kPageBytes);
    co_await ctx.store(a);   // walk 1
    co_await ctx.load(a);    // TLB hit
    f.space.free(a);
    const VirtAddr b = ctx.alloc(kPageBytes);
    co_await ctx.store(b);   // walk 2 (new page)
  }));
  EXPECT_EQ(f.machine.core_counters(0)[sim::Event::kPageWalks], 2u);
}

TEST(Runner, ThreadCountVisible) {
  Fixture f;
  Runner runner(f.machine, f.space);
  u32 seen = 0;
  runner.run(Program::homogeneous(3, [&](ThreadContext& ctx) -> SimTask {
    seen = ctx.thread_count();
    co_return;
  }));
  EXPECT_EQ(seen, 3u);
}

TEST(Runner, EmptyProgramThrows) {
  Fixture f;
  Runner runner(f.machine, f.space);
  EXPECT_THROW(runner.run(Program{}), CheckError);
}

}  // namespace
}  // namespace npat::trace

namespace npat::trace {
namespace {

SubTask failing_sub(ThreadContext& ctx) {
  co_await ctx.compute(1);
  throw std::runtime_error("sub-boom");
}

TEST(Runner, SubTaskExceptionPropagates) {
  Fixture f;
  Runner runner(f.machine, f.space);
  EXPECT_THROW(runner.run(Program::single([](ThreadContext& ctx) -> SimTask {
                 co_await failing_sub(ctx);
               })),
               std::runtime_error);
}

TEST(Runner, OversubscriptionSharesCores) {
  // 8 threads on a 4-core machine: all work completes; thread indices all
  // appear in phase marks.
  Fixture f;
  Runner runner(f.machine, f.space);
  const auto result = runner.run(Program::homogeneous(8, [](ThreadContext& ctx) -> SimTask {
    co_await ctx.compute(100);
    ctx.phase_mark(ctx.index());
  }));
  ASSERT_EQ(result.phase_marks.size(), 8u);
}

TEST(Runner, HugePageAllocationsWork) {
  Fixture f;
  Runner runner(f.machine, f.space);
  runner.run(Program::single([](ThreadContext& ctx) -> SimTask {
    const VirtAddr base = ctx.alloc_huge(os::kHugePageBytes);
    // Touch every 4 KiB step of the huge page: one page walk total.
    for (usize offset = 0; offset < os::kHugePageBytes; offset += kPageBytes) {
      co_await ctx.load(base + offset);
    }
  }));
  EXPECT_EQ(f.machine.core_counters(0)[sim::Event::kPageWalks], 1u);
}

TEST(Runner, SamplersSurviveAcrossRuns) {
  Fixture f;
  Runner runner(f.machine, f.space);
  int fires = 0;
  runner.add_sampler(10000, [&](Cycles) { ++fires; });
  runner.run(Program::single([](ThreadContext& ctx) -> SimTask {
    co_await ctx.compute(60000);
  }));
  const int first = fires;
  EXPECT_GT(first, 0);
  runner.run(Program::single([](ThreadContext& ctx) -> SimTask {
    co_await ctx.compute(60000);
  }));
  EXPECT_GT(fires, first);  // re-armed relative to the new start clock
}

TEST(Tasks, ResolvedTasksFillDefaults) {
  Program program = Program::homogeneous(
      3, [](ThreadContext& ctx) { return touch_n_lines(ctx, 1); });
  const auto resolved = resolved_tasks(program);
  ASSERT_EQ(resolved.size(), 3u);
  for (usize i = 0; i < 3; ++i) {
    EXPECT_EQ(resolved[i].pid, 1u);
    EXPECT_EQ(resolved[i].tid, i + 1);
    EXPECT_FALSE(resolved[i].process_name.empty());
    EXPECT_FALSE(resolved[i].thread_name.empty());
  }
}

TEST(Tasks, NameProcessAppliesPidAndName) {
  Program program = Program::homogeneous(
      2, [](ThreadContext& ctx) { return touch_n_lines(ctx, 1); });
  program.name_process(42, "sorter");
  const auto resolved = resolved_tasks(program);
  ASSERT_EQ(resolved.size(), 2u);
  EXPECT_EQ(resolved[0].pid, 42u);
  EXPECT_EQ(resolved[0].process_name, "sorter");
  EXPECT_EQ(resolved[1].tid, 2u);
}

TEST(Tasks, MismatchedTaskSpecCountRejected) {
  Program program = Program::homogeneous(
      2, [](ThreadContext& ctx) { return touch_n_lines(ctx, 1); });
  program.tasks.resize(1);
  EXPECT_THROW(resolved_tasks(program), CheckError);
}

TEST(Tasks, AccountingPopulatesPerTaskDomains) {
  Fixture f;
  RunnerConfig config;
  config.task_accounting = true;
  config.affinity = os::AffinityPolicy::kScatter;
  Runner runner(f.machine, f.space, config);
  Program program = Program::homogeneous(
      2, [](ThreadContext& ctx) { return touch_n_lines(ctx, 50); });
  program.name_process(7, "writer");
  runner.run(program);

  f.machine.flush_task_accounting();
  usize domains = 0;
  u64 stores = 0;
  for (u32 core = 0; core < f.machine.cores(); ++core) {
    for (const auto& [key, domain] : f.machine.pmu(core).task_domains()) {
      ++domains;
      EXPECT_EQ(key.pid, 7u);
      stores += domain.counters[sim::Event::kStoresRetired];
    }
  }
  EXPECT_GE(domains, 2u);
  // Every store the run retired is attributed to some task.
  EXPECT_EQ(stores, 100u);
}

TEST(Tasks, AccountingOffLeavesDomainsEmpty) {
  Fixture f;
  Runner runner(f.machine, f.space);  // default: node-only accounting
  runner.run(Program::single([](ThreadContext& ctx) { return touch_n_lines(ctx, 10); }));
  for (u32 core = 0; core < f.machine.cores(); ++core) {
    EXPECT_FALSE(f.machine.pmu(core).task_accounting_active());
    EXPECT_TRUE(f.machine.pmu(core).task_domains().empty());
  }
}

}  // namespace
}  // namespace npat::trace
