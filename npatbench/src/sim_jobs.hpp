// The two simulated EvSel jobs: `scan_compare` (Fig. 8) and `sort_sweep`
// (Fig. 9), each a smaller cut of the paper figure.
//
// A job measures a list of points with `evsel::Collector::measure` (every
// point re-runs the whole program once per register group and repetition)
// and then runs the figure's analysis: `evsel::compare` for the two scan
// listings, `evsel::correlate` over the thread-count sweep.
//
// The traced form of a job replays the exact runs `Collector::measure`
// makes — same seeds, same event groups, same call order — through the
// public calls it is built from, with a span around each:
// `Machine::reset`, the `os::AddressSpace` constructor, the program
// factory, `perf::CountingSession` start/stop and `trace::Runner::run`.
#pragma once

#include <string>
#include <vector>

#include "evsel/collector.hpp"
#include "evsel/measurement.hpp"
#include "tracer.hpp"

namespace npatbench {

using npat::u32;

enum class Analysis { kCompare, kCorrelate };

/// Full size is what the benchmark's workload measures; mini size is the
/// small fixed job a traced run of another workload uses to report this
/// job's layers.
enum class JobSize { kFull, kMini };

struct SimPoint {
  std::string label;
  double parameter = 0.0;  // swept value (threads); unused by kCompare
  npat::evsel::ProgramFactory factory;
  u32 repetitions = 2;  // overrides options.repetitions for this point
};

struct SimJobSpec {
  std::string name;
  npat::sim::MachineConfig machine;
  std::vector<SimPoint> points;
  npat::evsel::CollectOptions options;
  Analysis analysis = Analysis::kCompare;
  std::string parameter_name;  // kCorrelate only
};

SimJobSpec scan_compare_spec(u64 seed, JobSize size);
SimJobSpec sort_sweep_spec(u64 seed, JobSize size);

/// The untraced job on a fresh `evsel::Collector`: `Collector::measure`
/// per point, then the analysis.
struct SimJobResult {
  double setup_s = 0.0;  // constructing the job's evsel::Collector
  double job_s = 0.0;    // set-up excluded
  double measure_s = 0.0;  // inside Collector::measure, all points
  double analysis_s = 0.0;
  /// Host time per simulated program run: from one program-factory call
  /// to the next (the last run ends when `measure` returns), so it covers
  /// the run, its counter read-out and the next run's reset.
  std::vector<double> run_ms;
  std::vector<npat::evsel::Measurement> measurements;
  u64 runs = 0;
  /// Retired loads plus stores over every run of the job, from the PMU
  /// counters each run recorded.
  u64 memops = 0;
  /// One digest of the recorded counter values per run, in run order.
  std::vector<u64> run_digests;
  /// Fig. 8 / Fig. 9 shape directions that failed (empty when they hold).
  std::vector<std::string> shape_failures;
};

SimJobResult run_sim_job(const SimJobSpec& spec);

/// Exact totals of replayed runs, from `Machine::aggregate_counters` after
/// every run.
struct ReplayTotals {
  u64 runs = 0;
  u64 memops = 0;
  u64 page_walks = 0;
  u64 hitm = 0;
  u64 slices = 0;  // RunResult::scheduler_slices, summed
};

/// Replays one `Collector::measure(label, factory, options)` call of the
/// batched strategy on `machine`: the same runs with the same seeds, event
/// groups and order, through the public calls the collector makes, each
/// inside a span of `tracer` (null: no spans). After each run it adds the
/// machine's counters to `totals` (null: only the collector's calls are
/// made). It does not replay the collector's outlier re-runs; callers
/// compare the result with the collector's to catch any.
npat::evsel::Measurement replay_measure(npat::sim::Machine& machine, const std::string& label,
                                        const npat::evsel::ProgramFactory& factory,
                                        const npat::evsel::CollectOptions& options,
                                        Tracer* tracer, ReplayTotals* totals);

/// The traced replay of the same job, on a fresh machine: the machine's
/// random state carries over between runs, so a run's counters depend on
/// every run before it since construction.
struct TracedSimJobResult {
  double job_s = 0.0;
  double analysis_s = 0.0;
  std::vector<npat::evsel::Measurement> measurements;
  ReplayTotals totals;
  std::vector<std::string> shape_failures;
};

TracedSimJobResult run_traced_sim_job(const SimJobSpec& spec, Tracer& tracer);

/// True when both measurement lists hold identical samples for every event.
bool same_measurements(const std::vector<npat::evsel::Measurement>& a,
                       const std::vector<npat::evsel::Measurement>& b);

}  // namespace npatbench
