// Task registry: the collector-side (and probe-side) table binding compact
// wire task ids to (pid, tid) identities and human-readable names — the
// in-memory mirror of protocol v5's TaskTable frames. numatop keeps the
// same structure scraped from /proc; here the simulated workload's
// trace::TaskSpec list seeds it instead.
#pragma once

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "memhist/wire.hpp"
#include "monitor/export.hpp"
#include "trace/runner.hpp"
#include "util/types.hpp"

namespace npat::proc {

struct TaskId {
  u32 pid = 0;
  u32 tid = 0;

  friend auto operator<=>(const TaskId&, const TaskId&) = default;
};

struct TaskInfo {
  u32 pid = 0;
  u32 tid = 0;
  std::string process_name;
  std::string thread_name;

  friend bool operator==(const TaskInfo&, const TaskInfo&) = default;
};

class TaskRegistry {
 public:
  /// Registers a task, assigning the next compact id; idempotent by
  /// (pid, tid) — re-registration updates names and returns the same id.
  u32 add(TaskInfo info);

  /// Registers under an explicit wire id (collector side, folding a
  /// TaskTable frame). A clashing id for a different identity rebinds the
  /// id — the probe owns the id space.
  void add_with_id(u32 task_id, TaskInfo info);

  /// Registers every task a run of `program` will produce (see
  /// trace::resolved_tasks).
  void add_program(const trace::Program& program);

  const TaskInfo* find(u32 task_id) const;
  const TaskInfo* find_identity(u32 pid, u32 tid) const;
  usize size() const noexcept { return by_id_.size(); }

  // --- bridges -------------------------------------------------------------
  /// (pid, tid) -> wire id, for monitor::to_wire_tasks.
  std::map<std::pair<u32, u32>, u32> task_ids() const;
  /// Name lookup for monitor's CSV/JSON task exports.
  monitor::TaskNameTable name_table() const;

  /// All registered tasks as one TaskTable frame (ids ascending).
  memhist::wire::TaskTableMsg to_wire() const;
  /// Folds a received TaskTable frame (collector side).
  void merge_wire(const memhist::wire::TaskTableMsg& table);

 private:
  std::map<u32, TaskInfo> by_id_;
  std::map<TaskId, u32> by_identity_;
  u32 next_id_ = 1;
};

}  // namespace npat::proc
