// What one benchmark run reports: named metrics with units, and the tally
// of correctness checks (every operation the benchmark verifies counts as
// attempted; a failed check counts as failed).
#pragma once

#include <string>
#include <vector>

#include "util/types.hpp"

namespace npatbench {

using npat::u64;

class Checks {
 public:
  /// Records one checked operation; `what` names it in the failure log.
  void check(bool ok, const std::string& what);

  u64 attempted() const noexcept { return attempted_; }
  u64 failed() const noexcept { return failed_; }
  double failed_fraction() const noexcept;
  /// The first failures, for the human-readable log.
  const std::vector<std::string>& failures() const noexcept { return failures_; }

 private:
  u64 attempted_ = 0;
  u64 failed_ = 0;
  std::vector<std::string> failures_;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

class Metrics {
 public:
  /// Sets (or overwrites) a metric, keeping first-insertion order.
  void set(const std::string& name, double value, const std::string& unit);
  bool has(const std::string& name) const;
  const std::vector<Metric>& all() const noexcept { return metrics_; }

  /// Copies every metric of `other` that this set lacks.
  void fill_from(const Metrics& other);

 private:
  std::vector<Metric> metrics_;
};

/// The result line: {"correct", "attempted", "failed", "metrics"}.
std::string result_json(const Checks& checks, const Metrics& metrics);

}  // namespace npatbench
