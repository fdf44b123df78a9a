// Per-core performance monitoring unit.
//
// Like real silicon, events "happen" continuously: the machine increments
// the full CounterBlock unconditionally and reading a counter returns its
// free-running total. The perf layer implements the *programming* model on
// top (limited registers, enable windows, multiplexing) via delta reads —
// see perf/session.hpp.
//
// PEBS load-latency sampling is the one stateful facility: only a single
// threshold can be armed at a time (the hardware restriction that forces
// Memhist to time-cycle thresholds), and qualifying loads are counted and
// periodically recorded with their data source.
#pragma once

#include <map>
#include <optional>
#include <vector>

#include "sim/data_source.hpp"
#include "sim/events.hpp"
#include "util/types.hpp"

namespace npat::sim {

/// Identity of a software task for per-task attribution (numatop's unit
/// of account). Ordered so task domains iterate deterministically.
struct TaskKey {
  u32 pid = 0;
  u32 tid = 0;

  friend auto operator<=>(const TaskKey&, const TaskKey&) = default;
};

/// Hot-area tracking granularity: 1 MiB regions, numatop's default
/// memory-area bucket.
inline constexpr u32 kTaskAreaShift = 20;
/// Every Nth retired load of a task records its area (statistical, like
/// PEBS — exact per-access attribution would double the hot-path cost).
inline constexpr u32 kTaskAreaPeriod = 64;
/// Bounded per-task area map; the coldest overflow is tallied, not kept.
inline constexpr usize kMaxTaskAreas = 256;

/// Per-task counter domain. The PMU charges the core's free-running
/// counters unconditionally; on every task switch the delta since the
/// previous switch is folded into the outgoing task's domain — the same
/// save/restore-on-context-switch model perf uses for per-task counting.
struct TaskDomain {
  CounterBlock counters;
  /// Load-latency accumulation over *all* retired loads (not only those
  /// above the armed PEBS threshold), so avg latency is meaningful even
  /// when PEBS is disarmed.
  u64 latency_sum = 0;
  u64 latency_loads = 0;
  /// Sampled hot memory areas: (vaddr >> kTaskAreaShift) -> sampled loads.
  std::map<u64, u64> areas;
  u64 area_samples_dropped = 0;
  u32 area_countdown = kTaskAreaPeriod;
};

struct PebsConfig {
  Cycles latency_threshold = 32;
  /// Every Nth qualifying load produces a full sample record.
  u32 sample_period = 64;
  /// Restrict counting/sampling to loads served from one data source
  /// (e.g. remote HITM only) — the data-source umask filters real PEBS
  /// offers, and the hook for the paper's "coherency protocol overhead"
  /// and "TLB miss cost" follow-ups.
  std::optional<DataSource> source_filter{};
};

struct PebsRecord {
  VirtAddr vaddr = 0;
  Cycles latency = 0;
  DataSource source = DataSource::kL1;
  Cycles timestamp = 0;
};

class CorePmu {
 public:
  CorePmu() = default;

  // --- free-running counters ---
  CounterBlock& counters() noexcept { return counters_; }
  const CounterBlock& counters() const noexcept { return counters_; }
  u64 read(Event e) const noexcept { return counters_[e]; }

  // --- PEBS load latency ---
  /// Arms the single load-latency event; replaces any previous config and
  /// clears pending samples.
  void arm_pebs(const PebsConfig& config);
  void disarm_pebs();
  bool pebs_armed() const noexcept { return pebs_.has_value(); }
  const std::optional<PebsConfig>& pebs_config() const noexcept { return pebs_; }

  /// Called by the machine for every retired load.
  void on_load_retired(VirtAddr vaddr, Cycles latency, DataSource source, Cycles now);

  /// Drains collected sample records.
  std::vector<PebsRecord> take_samples();
  usize pending_samples() const noexcept { return samples_.size(); }

  // --- per-task counter domains ---
  /// Switches the current task: folds the counter delta since the last
  /// switch into the outgoing task's domain, then re-baselines for the
  /// incoming one. First call enables task accounting on this core.
  /// Cheap when the key does not change (the thread-per-core steady
  /// state): a single comparison.
  void set_current_task(const TaskKey& key);
  /// Folds the in-flight delta of the current task without switching, so
  /// a sampler can read up-to-date domains mid-run.
  void flush_current_task();
  /// Stops per-task accounting and drops all domains.
  void clear_task_accounting();
  bool task_accounting_active() const noexcept { return current_domain_ != nullptr; }
  const std::optional<TaskKey>& current_task() const noexcept { return current_task_; }
  /// Folded per-task domains; call flush_current_task() first for totals
  /// that include the running slice.
  const std::map<TaskKey, TaskDomain>& task_domains() const noexcept { return task_domains_; }

  void clear();

 private:
  CounterBlock counters_;
  std::optional<PebsConfig> pebs_;
  u32 pebs_countdown_ = 0;
  std::vector<PebsRecord> samples_;
  // Real PEBS buffers are finite; cap so pathological runs cannot OOM.
  static constexpr usize kMaxSamples = 1 << 20;

  std::map<TaskKey, TaskDomain> task_domains_;
  std::optional<TaskKey> current_task_;
  /// Domain of the current task (map nodes are pointer-stable), so the
  /// retired-load hot path avoids a map lookup.
  TaskDomain* current_domain_ = nullptr;
  /// Counter snapshot at the last task switch; the next fold charges
  /// counters_ - task_baseline_ to the outgoing task.
  CounterBlock task_baseline_;
};

}  // namespace npat::sim
