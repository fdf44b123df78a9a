#include "proc/task.hpp"

#include <gtest/gtest.h>

#include "workloads/parallel_sort.hpp"

namespace npat::proc {
namespace {

namespace wire = memhist::wire;

TaskInfo info(u32 pid, u32 tid, std::string pname, std::string tname) {
  return TaskInfo{pid, tid, std::move(pname), std::move(tname)};
}

TEST(TaskRegistry, AddAssignsSequentialIds) {
  TaskRegistry registry;
  EXPECT_EQ(registry.add(info(1, 1, "sort", "worker-0")), 1u);
  EXPECT_EQ(registry.add(info(1, 2, "sort", "worker-1")), 2u);
  EXPECT_EQ(registry.add(info(2, 1, "scan", "main")), 3u);
  EXPECT_EQ(registry.size(), 3u);
}

TEST(TaskRegistry, AddIsIdempotentByIdentityAndRefreshesNames) {
  TaskRegistry registry;
  const u32 id = registry.add(info(1, 1, "sort", "worker-0"));
  EXPECT_EQ(registry.add(info(1, 1, "sort-v2", "merger")), id);
  EXPECT_EQ(registry.size(), 1u);
  const TaskInfo* found = registry.find(id);
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->process_name, "sort-v2");
  EXPECT_EQ(found->thread_name, "merger");
}

TEST(TaskRegistry, FindAndIdOf) {
  TaskRegistry registry;
  const u32 id = registry.add(info(7, 3, "gups", "updater"));
  const TaskInfo* by_identity = registry.find_identity(7, 3);
  ASSERT_NE(by_identity, nullptr);
  EXPECT_EQ(by_identity->process_name, "gups");
  EXPECT_EQ(registry.task_ids().at({7, 3}), id);
  EXPECT_EQ(registry.find(99), nullptr);
  EXPECT_EQ(registry.find_identity(7, 4), nullptr);
  EXPECT_EQ(registry.task_ids().count({8, 3}), 0u);
}

TEST(TaskRegistry, AddWithIdRebindsClashingId) {
  // The probe owns the id space: when id 5 arrives bound to a different
  // (pid, tid), the stale identity mapping must go away, not dangle.
  TaskRegistry registry;
  registry.add_with_id(5, info(1, 1, "old", "t"));
  registry.add_with_id(5, info(2, 2, "new", "t"));
  EXPECT_EQ(registry.size(), 1u);
  const TaskInfo* found = registry.find(5);
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->pid, 2u);
  EXPECT_EQ(registry.task_ids().count({1, 1}), 0u);
  EXPECT_EQ(registry.task_ids().at({2, 2}), 5u);
}

TEST(TaskRegistry, AddWithIdAdvancesNextId) {
  TaskRegistry registry;
  registry.add_with_id(10, info(1, 1, "p", "t"));
  // Subsequent probe-side adds must not collide with the explicit id.
  EXPECT_EQ(registry.add(info(1, 2, "p", "t2")), 11u);
}

TEST(TaskRegistry, AddProgramUsesResolvedDefaults) {
  // Unnamed programs still register every thread: pid 1, tid = index + 1,
  // generated names (trace::resolved_tasks fills the defaults in).
  TaskRegistry registry;
  workloads::ParallelSortParams params;
  params.elements = 1 << 10;
  params.threads = 4;
  const trace::Program program = workloads::parallel_sort_program(params);
  registry.add_program(program);
  EXPECT_EQ(registry.size(), trace::resolved_tasks(program).size());
  for (const trace::TaskSpec& spec : trace::resolved_tasks(program)) {
    const TaskInfo* found = registry.find_identity(spec.pid, spec.tid);
    ASSERT_NE(found, nullptr);
    EXPECT_EQ(found->process_name, spec.process_name);
    EXPECT_EQ(found->thread_name, spec.thread_name);
  }
}

TEST(TaskRegistry, ToWireAndMergeWireRoundTrip) {
  TaskRegistry probe_side;
  probe_side.add(info(1, 1, "sort", "worker-0"));
  probe_side.add(info(1, 2, "sort", "worker-1"));
  probe_side.add(info(3, 1, "mlc", "loader"));

  const wire::TaskTableMsg table = probe_side.to_wire();
  ASSERT_EQ(table.entries.size(), 3u);
  // Entries come out ids-ascending.
  EXPECT_LT(table.entries[0].task_id, table.entries[1].task_id);
  EXPECT_LT(table.entries[1].task_id, table.entries[2].task_id);

  TaskRegistry collector_side;
  collector_side.merge_wire(table);
  EXPECT_EQ(collector_side.size(), 3u);
  EXPECT_EQ(collector_side.task_ids(), probe_side.task_ids());
  const TaskInfo* mlc = collector_side.find_identity(3, 1);
  ASSERT_NE(mlc, nullptr);
  EXPECT_EQ(mlc->process_name, "mlc");
  EXPECT_EQ(mlc->thread_name, "loader");
}

TEST(TaskRegistry, NameTableBridgesToMonitorExports) {
  TaskRegistry registry;
  registry.add(info(4, 2, "rampup", "phase-runner"));
  const monitor::TaskNameTable names = registry.name_table();
  const auto it = names.find({4u, 2u});
  ASSERT_NE(it, names.end());
  EXPECT_EQ(it->second.process_name, "rampup");
  EXPECT_EQ(it->second.thread_name, "phase-runner");
}

}  // namespace
}  // namespace npat::proc
