#include "proc/task.hpp"

#include <algorithm>

#include "obs/obs.hpp"

namespace npat::proc {

u32 TaskRegistry::add(TaskInfo info) {
  const TaskId identity{info.pid, info.tid};
  const auto it = by_identity_.find(identity);
  if (it != by_identity_.end()) {
    by_id_[it->second] = std::move(info);  // refresh names, keep the id
    return it->second;
  }
  const u32 id = next_id_++;
  by_identity_.emplace(identity, id);
  by_id_.emplace(id, std::move(info));
  NPAT_OBS_COUNT("npat_proc_tasks_registered_total", "Tasks registered in a TaskRegistry", 1);
  return id;
}

void TaskRegistry::add_with_id(u32 task_id, TaskInfo info) {
  const auto existing = by_id_.find(task_id);
  if (existing != by_id_.end()) {
    // Rebinding: drop the stale identity mapping for this id.
    by_identity_.erase(TaskId{existing->second.pid, existing->second.tid});
  }
  by_identity_[TaskId{info.pid, info.tid}] = task_id;
  by_id_[task_id] = std::move(info);
  next_id_ = std::max(next_id_, task_id + 1);
}

void TaskRegistry::add_program(const trace::Program& program) {
  for (const trace::TaskSpec& spec : trace::resolved_tasks(program)) {
    add(TaskInfo{spec.pid, spec.tid, spec.process_name, spec.thread_name});
  }
}

const TaskInfo* TaskRegistry::find(u32 task_id) const {
  const auto it = by_id_.find(task_id);
  return it != by_id_.end() ? &it->second : nullptr;
}

const TaskInfo* TaskRegistry::find_identity(u32 pid, u32 tid) const {
  const auto it = by_identity_.find(TaskId{pid, tid});
  return it != by_identity_.end() ? find(it->second) : nullptr;
}

std::map<std::pair<u32, u32>, u32> TaskRegistry::task_ids() const {
  std::map<std::pair<u32, u32>, u32> out;
  for (const auto& [identity, id] : by_identity_) out[{identity.pid, identity.tid}] = id;
  return out;
}

monitor::TaskNameTable TaskRegistry::name_table() const {
  monitor::TaskNameTable out;
  for (const auto& [id, info] : by_id_) {
    out[{info.pid, info.tid}] = monitor::TaskNames{info.process_name, info.thread_name};
  }
  return out;
}

memhist::wire::TaskTableMsg TaskRegistry::to_wire() const {
  memhist::wire::TaskTableMsg table;
  table.entries.reserve(by_id_.size());
  for (const auto& [id, info] : by_id_) {
    table.entries.push_back(
        memhist::wire::TaskTableEntry{id, info.pid, info.tid, info.process_name,
                                      info.thread_name});
  }
  return table;
}

void TaskRegistry::merge_wire(const memhist::wire::TaskTableMsg& table) {
  for (const memhist::wire::TaskTableEntry& entry : table.entries) {
    add_with_id(entry.task_id,
                TaskInfo{entry.pid, entry.tid, entry.process_name, entry.thread_name});
  }
}

}  // namespace npat::proc
