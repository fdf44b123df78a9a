// EvSel's measurement engine. Two strategies:
//
//  * kBatchedRuns (EvSel's design, §IV-A.1): all requested events are
//    partitioned into register-sized groups; the *whole program* is re-run
//    once per group, per repetition. No event cycling; every value is an
//    exact whole-run count.
//  * kMultiplexed (the alternative EvSel argues against): one run per
//    repetition with in-run group rotation and enabled/running scaling.
//
// bench/ablation_event_cycling compares their accuracy head-to-head.
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "evsel/measurement.hpp"
#include "sim/machine.hpp"
#include "trace/runner.hpp"

namespace npat::evsel {

enum class CollectionStrategy : u8 { kBatchedRuns, kMultiplexed };

struct CollectOptions {
  u32 repetitions = 5;
  /// Events to measure; empty = every event the platform exposes.
  std::vector<sim::Event> events;
  CollectionStrategy strategy = CollectionStrategy::kBatchedRuns;
  /// Group rotation period for kMultiplexed.
  Cycles rotation_interval = 500000;
  /// Base seed; every (repetition, group) run gets a distinct derived seed,
  /// honestly modelling that separate runs are never bit-identical.
  u64 seed = 2017;
  os::AffinityPolicy affinity = os::AffinityPolicy::kCompact;
  /// numactl-style placement override for the measured program: when set,
  /// every allocation the program makes uses this page policy (with
  /// `override_bind_node` for kBind) regardless of what the workload asked
  /// for — the advisor's apply-and-rerun path measures an *unmodified*
  /// workload under an advised placement this way.
  std::optional<os::PagePolicy> page_policy_override;
  sim::NodeId override_bind_node = 0;
  /// Robustness screen (0 disables; needs >= 3 repetitions): a run whose
  /// count for any armed event deviates from the cross-repetition median
  /// by more than `quarantine_mad_k * 1.4826 * MAD` (plus a tiny epsilon
  /// for perfectly repeatable counters) is quarantined — thrown out and
  /// re-measured with a fresh seed, so one scheduler hiccup or page-cache
  /// cold start does not poison the t-test inputs.
  double quarantine_mad_k = 0.0;
  /// Total re-measured replacement runs allowed per measure() call. A run
  /// whose replacement is still an outlier when the budget runs dry keeps
  /// the last value; Measurement::quarantined_runs() flags the degraded
  /// confidence either way.
  u32 retry_budget = 3;
};

/// Builds a fresh program for one run. Called once per (repetition, group).
using ProgramFactory = std::function<trace::Program()>;

class Collector {
 public:
  /// The collector owns a machine built from `config` and reuses it
  /// (reset) across runs.
  explicit Collector(sim::MachineConfig config);

  /// Measures `factory`'s program under `options`; `label` names the
  /// resulting measurement.
  Measurement measure(const std::string& label, const ProgramFactory& factory,
                      const CollectOptions& options = {});

  /// Total program runs executed so far (the cost of batching).
  u64 runs_executed() const noexcept { return runs_executed_; }

  sim::Machine& machine() noexcept { return machine_; }

 private:
  /// The one place EvSel builds a run: resets the machine, applies the
  /// placement override and reads `events` over one run of `factory`.
  std::vector<perf::EventValue> run_once(const ProgramFactory& factory, u64 seed,
                                         const CollectOptions& options,
                                         const std::vector<sim::Event>& events);

  sim::MachineConfig config_;
  sim::Machine machine_;
  u64 runs_executed_ = 0;
};

}  // namespace npat::evsel
