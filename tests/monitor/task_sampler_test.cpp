// TaskSampler integration against live simulations: per-(pid, tid) delta
// capture via the runner hook, conservation against the machine's own
// per-task domains, dominant-node attribution, and the empty-without-
// accounting contract.
#include "monitor/task_sampler.hpp"

#include <gtest/gtest.h>

#include <map>
#include <utility>

#include "sim/presets.hpp"
#include "workloads/parallel_sort.hpp"

namespace npat::monitor {
namespace {

struct Rig {
  sim::Machine machine;
  os::AddressSpace space;
  trace::Runner runner;

  explicit Rig(sim::MachineConfig config, bool task_accounting = true)
      : machine(std::move(config)),
        space(machine.topology()),
        runner(machine, space, make_config(task_accounting)) {}

  static trace::RunnerConfig make_config(bool task_accounting) {
    trace::RunnerConfig config;
    config.task_accounting = task_accounting;
    return config;
  }
};

trace::Program small_sort(u32 threads) {
  workloads::ParallelSortParams params;
  params.elements = 1 << 13;
  params.threads = threads;
  return workloads::parallel_sort_program(params);
}

TEST(TaskSampler, RowsSortedAndTimestampsPeriodic) {
  Rig rig(sim::dual_socket_small(1));
  TaskSamplerConfig config;
  config.period = 50000;
  TaskSampler sampler(rig.machine, config);
  sampler.attach(rig.runner);

  const auto result = rig.runner.run(small_sort(2));
  ASSERT_GT(result.duration, config.period);
  const auto samples = sampler.ring().drain();
  ASSERT_FALSE(samples.empty());
  for (usize i = 0; i < samples.size(); ++i) {
    EXPECT_EQ(samples[i].timestamp, config.period * (i + 1));
    for (usize t = 1; t < samples[i].tasks.size(); ++t) {
      const auto prev = std::make_pair(samples[i].tasks[t - 1].pid, samples[i].tasks[t - 1].tid);
      const auto cur = std::make_pair(samples[i].tasks[t].pid, samples[i].tasks[t].tid);
      EXPECT_LT(prev, cur);
    }
  }
}

TEST(TaskSampler, DeltasSumToPerTaskDomains) {
  Rig rig(sim::dual_socket_small(1));
  TaskSamplerConfig config;
  config.period = 40000;
  TaskSampler sampler(rig.machine, config);
  sampler.attach(rig.runner);

  rig.runner.run(small_sort(2));
  sampler.sample(rig.machine.max_clock());  // flush the tail

  std::map<std::pair<u32, u32>, u64> instructions;
  std::map<std::pair<u32, u32>, u64> latency_loads;
  for (const TaskSample& sample : sampler.ring().drain()) {
    for (const TaskCounters& t : sample.tasks) {
      instructions[{t.pid, t.tid}] += t.instructions;
      latency_loads[{t.pid, t.tid}] += t.latency_loads;
    }
  }
  // Oracle: the machine's per-task domains, summed across cores.
  rig.machine.flush_task_accounting();
  std::map<std::pair<u32, u32>, std::pair<u64, u64>> domains;
  for (u32 core = 0; core < rig.machine.cores(); ++core) {
    for (const auto& [key, domain] : rig.machine.pmu(core).task_domains()) {
      auto& [domain_instructions, domain_latency_loads] = domains[{key.pid, key.tid}];
      domain_instructions += domain.counters[sim::Event::kInstructions];
      domain_latency_loads += domain.latency_loads;
    }
  }
  ASSERT_EQ(domains.size(), 2u);
  for (const auto& [key, totals] : domains) {
    EXPECT_EQ(instructions[key], totals.first);
    EXPECT_EQ(latency_loads[key], totals.second);
  }
}

TEST(TaskSampler, AreasAreCumulativeSnapshots) {
  Rig rig(sim::dual_socket_small(1));
  TaskSamplerConfig config;
  config.period = 50000;
  config.max_areas = 4;
  TaskSampler sampler(rig.machine, config);
  sampler.attach(rig.runner);
  rig.runner.run(small_sort(2));
  sampler.sample(rig.machine.max_clock());

  // Per task, total sampled loads in the area snapshot never shrink.
  std::map<std::pair<u32, u32>, u64> last_total;
  for (const TaskSample& sample : sampler.ring().drain()) {
    for (const TaskCounters& t : sample.tasks) {
      if (t.areas.empty()) continue;
      EXPECT_LE(t.areas.size(), config.max_areas);
      u64 total = 0;
      for (const TaskArea& area : t.areas) total += area.samples;
      u64& floor = last_total[{t.pid, t.tid}];
      EXPECT_GE(total, floor);
      floor = total;
    }
  }
  EXPECT_FALSE(last_total.empty());  // the sort samples at least one area
}

TEST(TaskSampler, EmptyWithoutTaskAccounting) {
  Rig rig(sim::dual_socket_small(1), /*task_accounting=*/false);
  TaskSampler sampler(rig.machine);
  sampler.attach(rig.runner);
  rig.runner.run(small_sort(2));
  sampler.sample(rig.machine.max_clock());
  for (const TaskSample& sample : sampler.ring().drain()) {
    EXPECT_TRUE(sample.tasks.empty());
  }
}

TEST(TaskSampler, IdlePeriodReportsZeroDeltasButKeepsSnapshots) {
  Rig rig(sim::dual_socket_small(1));
  TaskSampler sampler(rig.machine);
  sampler.attach(rig.runner);
  rig.runner.run(small_sort(2));
  sampler.sample(rig.machine.max_clock());
  sampler.ring().drain();
  // Nothing ran since the flush: rows persist (numatop keeps showing idle
  // tasks) but every delta is zero, while the cumulative area snapshot
  // survives.
  sampler.sample(rig.machine.max_clock() + 1);
  const auto tail = sampler.ring().drain();
  ASSERT_EQ(tail.size(), 1u);
  ASSERT_EQ(tail[0].tasks.size(), 2u);
  for (const TaskCounters& t : tail[0].tasks) {
    EXPECT_EQ(t.instructions, 0u);
    EXPECT_EQ(t.cycles, 0u);
    EXPECT_EQ(t.loads, 0u);
  }
}

}  // namespace
}  // namespace npat::monitor
