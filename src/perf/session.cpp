#include "perf/session.hpp"

#include "perf/registry.hpp"
#include "util/check.hpp"

namespace npat::perf {

void check_group_fits(const std::vector<sim::Event>& group, usize core_registers,
                      usize uncore_registers) {
  usize core_used = 0;
  usize uncore_used = 0;
  for (sim::Event event : group) {
    if (is_fixed(event)) continue;
    if (is_uncore(event)) {
      ++uncore_used;
    } else {
      ++core_used;
    }
  }
  NPAT_CHECK_MSG(core_used <= core_registers,
                 "not enough programmable core counter registers for this group");
  NPAT_CHECK_MSG(uncore_used <= uncore_registers,
                 "not enough programmable uncore counter registers for this group");
}

std::vector<std::vector<sim::Event>> plan_event_groups(const std::vector<sim::Event>& events,
                                                       usize core_registers,
                                                       usize uncore_registers) {
  NPAT_CHECK_MSG(core_registers > 0 && uncore_registers > 0,
                 "register capacities must be positive");
  std::vector<std::vector<sim::Event>> groups;
  std::vector<sim::Event> fixed;
  std::vector<sim::Event> core;
  std::vector<sim::Event> uncore;
  for (sim::Event event : events) {
    if (is_fixed(event)) {
      fixed.push_back(event);
    } else if (is_uncore(event)) {
      uncore.push_back(event);
    } else {
      core.push_back(event);
    }
  }

  usize core_index = 0;
  usize uncore_index = 0;
  while (core_index < core.size() || uncore_index < uncore.size() || !fixed.empty()) {
    std::vector<sim::Event> group;
    // Fixed counters are free; attach them to the first group.
    group.insert(group.end(), fixed.begin(), fixed.end());
    fixed.clear();
    for (usize r = 0; r < core_registers && core_index < core.size(); ++r) {
      group.push_back(core[core_index++]);
    }
    for (usize r = 0; r < uncore_registers && uncore_index < uncore.size(); ++r) {
      group.push_back(uncore[uncore_index++]);
    }
    if (group.empty()) break;
    groups.push_back(std::move(group));
  }
  return groups;
}

CountingSession::CountingSession(sim::Machine& machine, std::vector<sim::Event> armed,
                                 CpuSet cpus)
    : machine_(&machine), armed_(std::move(armed)), cpus_(std::move(cpus)) {
  NPAT_CHECK_MSG(!armed_.empty(), "counting session needs at least one event");
  check_group_fits(armed_, kProgrammableCoreRegisters, kProgrammableUncoreRegisters);
  for (const sim::CoreId core : cpus_) {
    NPAT_CHECK_MSG(core < machine_->cores(), "cpu set contains an invalid core");
  }
}

sim::CounterBlock CountingSession::system_totals() const {
  if (cpus_.empty()) return machine_->aggregate_counters();
  sim::CounterBlock total;
  std::vector<bool> node_seen(machine_->nodes(), false);
  for (const sim::CoreId core : cpus_) {
    total += machine_->core_counters(core);
    const sim::NodeId node = machine_->topology().node_of_core(core);
    if (!node_seen[node]) {
      node_seen[node] = true;
      total += machine_->uncore_counters(node);
    }
  }
  return total;
}

void CountingSession::start() {
  NPAT_CHECK_MSG(!running_, "session already started");
  baseline_ = system_totals();
  running_ = true;
}

std::vector<EventValue> CountingSession::stop() {
  NPAT_CHECK_MSG(running_, "session not started");
  running_ = false;
  const sim::CounterBlock now = system_totals();
  std::vector<EventValue> out;
  out.reserve(armed_.size());
  for (sim::Event event : armed_) {
    const u64 delta = now[event] - baseline_[event];
    out.push_back(EventValue{event, static_cast<double>(delta), false});
  }
  return out;
}

}  // namespace npat::perf
