// Counting sessions — the perf_event_open counting-mode analogue.
//
// The PMU exposes a limited number of programmable registers per core (and
// per uncore box). A CountingSession arms at most one register's worth of
// events per register; opening more than the hardware allows fails, exactly
// the constraint that forces EvSel to measure "batches of registers
// sequentially" over repeated program runs instead of event cycling.
#pragma once

#include <vector>

#include "sim/events.hpp"
#include "sim/machine.hpp"
#include "util/types.hpp"

namespace npat::perf {

inline constexpr usize kProgrammableCoreRegisters = 4;
inline constexpr usize kProgrammableUncoreRegisters = 4;

struct EventValue {
  sim::Event event = sim::Event::kCycles;
  double value = 0.0;
  /// True when the value was extrapolated from a partial enable window
  /// (multiplexing); exact counts are false.
  bool estimated = false;
};

/// Partitions `events` into groups that each fit the register constraints.
/// Fixed-counter events ride along with the first group for free.
std::vector<std::vector<sim::Event>> plan_event_groups(
    const std::vector<sim::Event>& events,
    usize core_registers = kProgrammableCoreRegisters,
    usize uncore_registers = kProgrammableUncoreRegisters);

/// Cores a session is attached to; empty = system-wide (every core and
/// every uncore box) — perf's "measured on the entire system or on
/// specific CPU cores" (§II-F).
using CpuSet = std::vector<sim::CoreId>;

/// Counting of one armed group via start/stop snapshots.
class CountingSession {
 public:
  /// Throws CheckError if `armed` exceeds the register constraints.
  /// `cpus` restricts core-scope events to those cores; uncore events are
  /// restricted to the sockets covered by `cpus`.
  CountingSession(sim::Machine& machine, std::vector<sim::Event> armed,
                  CpuSet cpus = {});

  void start();
  /// Returns exact deltas for the armed events since start().
  std::vector<EventValue> stop();

  const std::vector<sim::Event>& armed() const noexcept { return armed_; }

 private:
  sim::CounterBlock system_totals() const;

  sim::Machine* machine_;
  std::vector<sim::Event> armed_;
  CpuSet cpus_;
  sim::CounterBlock baseline_;
  bool running_ = false;
};

/// Validates a group against the register constraints (used by both the
/// session constructor and the planner); throws CheckError on violation.
void check_group_fits(const std::vector<sim::Event>& group, usize core_registers,
                      usize uncore_registers);

}  // namespace npat::perf
