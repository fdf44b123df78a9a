#include "monitor/aggregate.hpp"

#include <gtest/gtest.h>

namespace npat::monitor {
namespace {

Sample make_sample(Cycles timestamp, u64 scale) {
  Sample sample;
  sample.timestamp = timestamp;
  sample.footprint_bytes = 1000 * scale;
  sample.nodes.resize(2);
  // Node 0: all-local traffic, IPC 2.
  sample.nodes[0] = NodeSample{200 * scale, 100 * scale, 30 * scale, 0, 0,
                               10 * scale,  5 * scale,   0,          4096 * scale};
  // Node 1: mostly remote traffic, IPC 0.5.
  sample.nodes[1] = NodeSample{50 * scale, 100 * scale, 10 * scale, 25 * scale, 5 * scale,
                               8 * scale,  2 * scale,   40 * scale, 8192 * scale};
  return sample;
}

TEST(Aggregate, EmptyWindow) {
  const WindowStats window = aggregate({});
  EXPECT_EQ(window.samples, 0u);
  EXPECT_TRUE(window.nodes.empty());
  EXPECT_EQ(window.span(123), 123u);
}

TEST(Aggregate, WindowSumsAndRates) {
  std::vector<Sample> samples = {make_sample(100, 1), make_sample(200, 1), make_sample(300, 2)};
  const WindowStats window = aggregate(samples);

  EXPECT_EQ(window.start, 100u);
  EXPECT_EQ(window.end, 300u);
  EXPECT_EQ(window.span(), 200u);
  EXPECT_EQ(window.samples, 3u);
  EXPECT_EQ(window.footprint_bytes, 2000u);  // last snapshot
  ASSERT_EQ(window.nodes.size(), 2u);

  const NodeStats& node0 = window.nodes[0];
  EXPECT_EQ(node0.instructions, 200u * 4);  // scales 1+1+2
  EXPECT_EQ(node0.cycles, 100u * 4);
  EXPECT_DOUBLE_EQ(node0.ipc(), 2.0);
  EXPECT_DOUBLE_EQ(node0.local_ratio(), 1.0);
  EXPECT_DOUBLE_EQ(node0.remote_ratio(), 0.0);
  EXPECT_EQ(node0.resident_bytes, 8192u);  // last snapshot (scale 2)

  const NodeStats& node1 = window.nodes[1];
  EXPECT_DOUBLE_EQ(node1.ipc(), 0.5);
  // 10 local vs 25 remote DRAM + 5 HITM per unit scale.
  EXPECT_DOUBLE_EQ(node1.local_ratio(), 0.25);
  EXPECT_DOUBLE_EQ(node1.remote_ratio(), 0.75);
  EXPECT_EQ(node1.qpi_flits, 40u * 4);
}

TEST(Aggregate, RatiosDegradeGracefullyWhenIdle) {
  NodeStats idle;
  EXPECT_DOUBLE_EQ(idle.local_ratio(), 1.0);
  EXPECT_DOUBLE_EQ(idle.remote_ratio(), 0.0);
  EXPECT_DOUBLE_EQ(idle.ipc(), 0.0);
  EXPECT_DOUBLE_EQ(idle.dram_bytes_per_cycle(0), 0.0);
}

TEST(Aggregate, DramBandwidthScalesWithFrequency) {
  NodeStats stats;
  stats.imc_reads = 1000;
  stats.imc_writes = 500;
  // 1500 lines × 64 B over 96000 cycles = 1 byte/cycle.
  EXPECT_DOUBLE_EQ(stats.dram_bytes_per_cycle(96000), 1.0);
  EXPECT_DOUBLE_EQ(stats.dram_gbps(96000, 2.4), 2.4);  // 1 B/cyc at 2.4 GHz
}

TEST(Aggregate, TotalSumsNodes) {
  std::vector<Sample> samples = {make_sample(100, 1)};
  const NodeStats total = aggregate(samples).total();
  EXPECT_EQ(total.instructions, 250u);
  EXPECT_EQ(total.cycles, 200u);
  EXPECT_EQ(total.local_dram, 40u);
  EXPECT_EQ(total.remote_dram, 25u);
  EXPECT_EQ(total.remote_hitm, 5u);
  EXPECT_EQ(total.resident_bytes, 4096u + 8192u);
}

TEST(Aggregate, MergePreservesSumsAndTakesLastSnapshots) {
  std::vector<Sample> samples = {make_sample(100, 1), make_sample(200, 3)};
  const Sample merged = merge_samples(samples);
  EXPECT_EQ(merged.timestamp, 200u);
  EXPECT_EQ(merged.footprint_bytes, 3000u);
  EXPECT_EQ(merged.nodes[0].instructions, 200u * 4);
  EXPECT_EQ(merged.nodes[0].resident_bytes, 4096u * 3);
  EXPECT_EQ(merged.nodes[1].qpi_flits, 40u * 4);
}

TEST(TieredHistory, DownsamplesByFactor) {
  TierConfig config;
  config.tiers = 3;
  config.factor = 10;
  config.capacity = 2000;
  TieredHistory history(config);

  for (u64 i = 1; i <= 1000; ++i) history.add(make_sample(i * 100, 1));

  EXPECT_EQ(history.tier(0).size(), 1000u);
  EXPECT_EQ(history.tier(1).size(), 100u);
  EXPECT_EQ(history.tier(2).size(), 10u);

  // A tier-2 sample covers 100 base samples: sums scale, snapshots do not.
  const Sample& coarse = history.tier(2).peek(0);
  EXPECT_EQ(coarse.timestamp, 100u * 100);  // last of the first 100
  EXPECT_EQ(coarse.nodes[0].instructions, 200u * 100);
  EXPECT_EQ(coarse.nodes[0].resident_bytes, 4096u);  // snapshot
  EXPECT_EQ(coarse.footprint_bytes, 1000u);
}

TEST(TieredHistory, BoundedMemoryForLongCaptures) {
  TierConfig config;
  config.tiers = 2;
  config.factor = 4;
  config.capacity = 16;
  TieredHistory history(config);

  for (u64 i = 1; i <= 10000; ++i) history.add(make_sample(i, 1));

  // Every tier stays at its cap; overflow is counted, not stored.
  EXPECT_EQ(history.tier(0).size(), 16u);
  EXPECT_EQ(history.tier(1).size(), 16u);
  EXPECT_EQ(history.tier(0).dropped(), 10000u - 16);
  EXPECT_EQ(history.tier(1).dropped(), 10000u / 4 - 16);
  // Tier 0 retains the newest base samples.
  EXPECT_EQ(history.tier(0).peek(15).timestamp, 10000u);
}

TEST(TieredHistory, InvalidConfigsRejected) {
  TierConfig no_tiers;
  no_tiers.tiers = 0;
  EXPECT_THROW(TieredHistory{no_tiers}, CheckError);
  TierConfig tiny_factor;
  tiny_factor.factor = 1;
  EXPECT_THROW(TieredHistory{tiny_factor}, CheckError);
}

// --- per-task windows ------------------------------------------------------

TaskCounters task_row(u32 pid, u32 tid, u32 node, u64 scale) {
  TaskCounters row;
  row.pid = pid;
  row.tid = tid;
  row.node = node;
  row.instructions = 100 * scale;
  row.cycles = 200 * scale;
  row.local_dram = 30 * scale;
  row.remote_dram = 10 * scale;
  row.remote_hitm = 2 * scale;
  row.loads = 42 * scale;
  row.latency_sum = 8400 * scale;
  row.latency_loads = 42 * scale;
  return row;
}

TEST(AggregateTasks, EmptyWindow) {
  const TaskWindowStats window = aggregate_tasks({});
  EXPECT_EQ(window.samples, 0u);
  EXPECT_TRUE(window.tasks.empty());
  EXPECT_EQ(window.find(1, 1), nullptr);
}

TEST(AggregateTasks, SumsPerTaskAcrossSamplesAndSorts) {
  TaskSample first;
  first.timestamp = 100;
  first.tasks = {task_row(2, 1, 0, 1), task_row(1, 1, 0, 1)};
  TaskSample second;
  second.timestamp = 200;
  second.tasks = {task_row(1, 1, 0, 2)};  // task (2, 1) vanished this period

  const TaskWindowStats window = aggregate_tasks(std::vector<TaskSample>{first, second});
  EXPECT_EQ(window.start, 100u);
  EXPECT_EQ(window.end, 200u);
  EXPECT_EQ(window.samples, 2u);
  ASSERT_EQ(window.tasks.size(), 2u);
  EXPECT_EQ(window.tasks[0].pid, 1u);  // sorted by (pid, tid)
  EXPECT_EQ(window.tasks[1].pid, 2u);
  const TaskStats* merged = window.find(1, 1);
  ASSERT_NE(merged, nullptr);
  EXPECT_EQ(merged->samples, 2u);
  EXPECT_EQ(merged->instructions, 300u);
  EXPECT_EQ(merged->rma(), 36u);  // (10 + 2) * 3
  EXPECT_EQ(merged->lma(), 90u);
  EXPECT_DOUBLE_EQ(merged->cpi(), 2.0);
  EXPECT_DOUBLE_EQ(merged->avg_load_latency(), 200.0);
  EXPECT_EQ(window.find(2, 1)->samples, 1u);
}

TEST(AggregateTasks, DominantNodeIsWindowArgmax) {
  TaskSample first;
  first.timestamp = 100;
  first.tasks = {task_row(1, 1, 0, 1)};  // 200 cycles on node 0
  TaskSample second;
  second.timestamp = 200;
  second.tasks = {task_row(1, 1, 1, 3)};  // 600 cycles on node 1
  const TaskWindowStats window = aggregate_tasks(std::vector<TaskSample>{first, second});
  ASSERT_EQ(window.tasks.size(), 1u);
  EXPECT_EQ(window.tasks[0].node, 1u);
}

TEST(AggregateTasks, AreasKeepLastNonEmptySnapshot) {
  TaskSample first;
  first.timestamp = 100;
  first.tasks = {task_row(1, 1, 0, 1)};
  first.tasks[0].areas = {{0x100, 5}};
  TaskSample second;
  second.timestamp = 200;
  second.tasks = {task_row(1, 1, 0, 1)};
  second.tasks[0].areas = {{0x100, 9}, {0x200, 3}};
  TaskSample third;
  third.timestamp = 300;
  third.tasks = {task_row(1, 1, 0, 1)};  // no area snapshot this period

  const TaskWindowStats window =
      aggregate_tasks(std::vector<TaskSample>{first, second, third});
  ASSERT_EQ(window.tasks.size(), 1u);
  // Areas are cumulative snapshots, not deltas: the last non-empty one
  // represents the window.
  ASSERT_EQ(window.tasks[0].areas.size(), 2u);
  EXPECT_EQ(window.tasks[0].areas[0].samples, 9u);
}

TEST(AggregateTasks, RatiosDegradeGracefullyWhenIdle) {
  TaskSample sample;
  sample.timestamp = 100;
  sample.tasks = {TaskCounters{}};  // all-zero task
  const TaskWindowStats window = aggregate_tasks(std::vector<TaskSample>{sample});
  ASSERT_EQ(window.tasks.size(), 1u);
  EXPECT_DOUBLE_EQ(window.tasks[0].rma_lma_ratio(), 0.0);
  EXPECT_DOUBLE_EQ(window.tasks[0].remote_ratio(), 0.0);
  EXPECT_DOUBLE_EQ(window.tasks[0].cpi(), 0.0);
  EXPECT_DOUBLE_EQ(window.tasks[0].avg_load_latency(), 0.0);
}

}  // namespace
}  // namespace npat::monitor
