// Windowed per-node aggregation over monitor samples, and multi-resolution
// downsampling for bounded-memory long captures.
//
// A window of consecutive samples collapses into per-node rates — local
// vs. remote access ratio, IPC, DRAM bytes per cycle, interconnect flits —
// which is what the live view renders and what alert thresholds would
// evaluate. The TieredHistory keeps three zoom levels (1×/10×/100× the
// base period by default), each in a fixed-capacity ring, so an arbitrarily
// long capture costs constant memory while recent history stays at full
// resolution.
#pragma once

#include <span>
#include <vector>

#include "monitor/ring.hpp"
#include "monitor/sampler.hpp"
#include "monitor/task_sampler.hpp"
#include "util/types.hpp"

namespace npat::monitor {

/// Per-node totals over a window, with derived rates.
struct NodeStats {
  u64 samples = 0;
  u64 instructions = 0;
  u64 cycles = 0;
  u64 local_dram = 0;
  u64 remote_dram = 0;
  u64 remote_hitm = 0;
  u64 imc_reads = 0;
  u64 imc_writes = 0;
  u64 qpi_flits = 0;
  u64 resident_bytes = 0;  // last snapshot in the window

  /// Loads served by DRAM or a remote cache (the NUMA-relevant universe).
  u64 numa_loads() const noexcept { return local_dram + remote_dram + remote_hitm; }
  /// Fraction of NUMA-relevant loads served locally (1.0 when idle).
  double local_ratio() const noexcept;
  /// Fraction served by a remote node (DRAM or HITM forward).
  double remote_ratio() const noexcept;
  double ipc() const noexcept;
  /// Memory-controller traffic in bytes per cycle (lines × 64 / cycles of
  /// the window's wall clock, passed in by the caller).
  double dram_bytes_per_cycle(Cycles window_cycles) const noexcept;
  /// Same traffic in GB/s for a core frequency in GHz.
  double dram_gbps(Cycles window_cycles, double frequency_ghz) const noexcept;
};

/// One aggregated window.
struct WindowStats {
  Cycles start = 0;  // timestamp of the first sample in the window
  Cycles end = 0;    // timestamp of the last
  u64 samples = 0;
  u64 footprint_bytes = 0;  // last snapshot
  std::vector<NodeStats> nodes;

  /// Wall-clock span covered. Timestamps mark period *ends*, so a single
  /// sample still spans one period if the caller provides it.
  Cycles span(Cycles fallback_period = 0) const noexcept {
    return end > start ? end - start : fallback_period;
  }
  /// Sum over nodes (system-wide totals).
  NodeStats total() const;
};

/// Collapses consecutive samples into one window. Samples must share the
/// node count (they do when produced by one Sampler).
WindowStats aggregate(std::span<const Sample> samples);

/// Merges consecutive samples into one coarser sample (deltas sum,
/// snapshots and the timestamp take the last value).
Sample merge_samples(std::span<const Sample> samples);

/// Per-task totals over a window, with the derived numatop columns.
struct TaskStats {
  u32 pid = 0;
  u32 tid = 0;
  /// Node carrying the most of the task's cycles over the window.
  u32 node = 0;
  u64 samples = 0;  // window rows contributing to this task
  u64 instructions = 0;
  u64 cycles = 0;
  u64 local_dram = 0;
  u64 remote_dram = 0;
  u64 remote_hitm = 0;
  u64 loads = 0;
  u64 latency_sum = 0;
  u64 latency_loads = 0;
  /// Last hot-area snapshot seen in the window.
  std::vector<TaskArea> areas;

  /// Remote memory accesses (numatop's RMA column).
  u64 rma() const noexcept { return remote_dram + remote_hitm; }
  /// Local memory accesses (numatop's LMA column).
  u64 lma() const noexcept { return local_dram; }
  double rma_lma_ratio() const noexcept;
  /// Fraction of NUMA-relevant loads served remotely.
  double remote_ratio() const noexcept;
  double cpi() const noexcept;
  double avg_load_latency() const noexcept;
};

/// One aggregated per-task window.
struct TaskWindowStats {
  Cycles start = 0;
  Cycles end = 0;
  u64 samples = 0;  // TaskSample records in the window
  std::vector<TaskStats> tasks;  // sorted by (pid, tid)

  const TaskStats* find(u32 pid, u32 tid) const noexcept;
};

/// Collapses consecutive per-task samples into one window; tasks are
/// matched by (pid, tid) across samples (rows may appear or vanish as
/// tasks start and exit).
TaskWindowStats aggregate_tasks(std::span<const TaskSample> samples);

struct TierConfig {
  usize tiers = 3;
  /// Downsampling factor between adjacent tiers.
  usize factor = 10;
  /// Samples retained per tier.
  usize capacity = 512;
};

class TieredHistory {
 public:
  explicit TieredHistory(TierConfig config = {});

  /// Feeds one base-period sample; coarser tiers fill automatically.
  void add(const Sample& sample);

  usize tiers() const noexcept { return rings_.size(); }
  const Ring<Sample>& tier(usize t) const { return rings_.at(t); }
  const TierConfig& config() const noexcept { return config_; }

 private:
  struct Pending {
    Sample accumulator;
    usize count = 0;
  };

  void feed(usize t, const Sample& sample);
  static void accumulate(Sample& into, const Sample& sample);

  TierConfig config_;
  std::vector<Ring<Sample>> rings_;
  std::vector<Pending> pending_;
};

}  // namespace npat::monitor
