// One benchmark run: a workload measured for a time budget, untraced
// (end-to-end metrics) or traced (per-layer metrics), with every
// operation checked for exact results.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "report.hpp"
#include "util/json.hpp"

namespace npatbench {

/// Default `--seed`; the committed expectations are recorded for it.
inline constexpr u64 kDefaultSeed = 1;

struct RunOptions {
  std::string workload;
  u64 seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  /// Committed exact results (see expected.json); checked when `seed`
  /// equals their seed.
  std::optional<npat::util::Json> expected;
};

struct RunReport {
  Metrics metrics;
  Checks checks;
  /// Extra human-readable lines (tail sample counts, quartiles, failures).
  std::vector<std::string> notes;
  /// Spans of the last traced job, as Chrome trace-event JSON.
  std::string trace_json;
};

/// Throws npat::CheckError for an unknown workload.
RunReport run_benchmark(const RunOptions& options);

/// The exact results of one job of every workload at `seed`, in the
/// layout run_benchmark() checks against.
npat::util::Json record_expectations(u64 seed);

}  // namespace npatbench
