// Run comparison (EvSel Fig. 5/8): for every event measured in two
// configurations, a Welch t-test (Bessel-corrected sample variances)
// decides whether the counter changed significantly; the relative delta
// and confidence are reported, with multiple-comparisons-adjusted p-values
// because dozens of counters are screened at once (§III-B.1).
#pragma once

#include <string>
#include <vector>

#include "evsel/measurement.hpp"
#include "stats/ttest.hpp"
#include "validate/trust.hpp"

namespace npat::evsel {

struct ComparisonRow {
  sim::Event event = sim::Event::kCycles;
  stats::TTestResult test;
  double adjusted_p = 1.0;  // Holm–Bonferroni family-wise adjusted
  bool zero_in_both = false;
  usize repetitions_a = 0;
  usize repetitions_b = 0;
  /// Worst trust tier across both sides (and the active TrustReport, if
  /// any). kUnvalidated means no validation evidence was available.
  validate::TrustTier trust = validate::TrustTier::kUnvalidated;
  /// Refuted events stay in the row list (so the reader sees they were
  /// measured) but are quarantined: no t-test runs, no Holm slot is spent
  /// on them, and significant() is always false.
  bool trust_quarantined = false;

  bool significant(double alpha = 0.05) const {
    return !zero_in_both && !trust_quarantined && !test.degenerate && adjusted_p < alpha;
  }
};

struct Comparison {
  std::string label_a;
  std::string label_b;
  /// Runs each side quarantined and re-measured by the collector's MAD
  /// screen — reported next to the repetition counts so a reader can tell
  /// a clean 5-rep sample from one that needed outlier surgery.
  usize quarantined_a = 0;
  usize quarantined_b = 0;
  /// Outlier runs left untreated when the MAD screen's retry budget ran
  /// dry (see Measurement::retry_exhausted_runs).
  usize retry_exhausted_a = 0;
  usize retry_exhausted_b = 0;
  /// Rows excluded from the Welch/Holm family because their event is
  /// refuted by the trust harness; they remain in `rows` for display.
  usize refuted_quarantined = 0;
  std::vector<ComparisonRow> rows;  // registry order

  const ComparisonRow& row(sim::Event event) const;
};

struct CompareOptions {
  stats::TTestKind test = stats::TTestKind::kWelch;
  /// Apply Holm–Bonferroni across all compared events.
  bool adjust_for_multiple_comparisons = true;
  /// Trust report consulted per event; nullptr falls back to the
  /// process-wide validate::active_trust_report() and then to whatever
  /// annotations the measurements carry.
  const validate::TrustReport* trust = nullptr;
};

/// Compares every event present in both measurements (>= 2 reps each side).
Comparison compare(const Measurement& a, const Measurement& b,
                   const CompareOptions& options = {});

}  // namespace npat::evsel
