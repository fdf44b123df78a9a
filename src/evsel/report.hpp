// Terminal rendering of EvSel results, reproducing the GUI's visual cues
// (Fig. 5): every event listed with its description, zero counters grayed
// out, significance icons with the reached confidence, color-coded
// correlations.
#pragma once

#include <string>

#include "evsel/compare.hpp"
#include "evsel/regress.hpp"

namespace npat::evsel {

struct ReportOptions {
  double alpha = 0.05;
  /// Show every event, not only significant ones.
  bool include_all_events = false;
  /// Include the long event descriptions column.
  bool show_descriptions = true;
  /// Cap on rendered rows (0 = unlimited).
  usize max_rows = 0;
};

/// Comparison table: event, means, delta, significance icon + confidence.
std::string render_comparison(const Comparison& comparison, const ReportOptions& options = {});

/// Correlation table: event, fit type, fitted function, R (Fig. 9 layout).
std::string render_correlations(const SweepResult& result, double min_abs_r = 0.5,
                                const ReportOptions& options = {});

/// Plain listing of one measurement (event, mean, stddev, description) —
/// the "all available events on the CPU are listed" pane.
std::string render_measurement(const Measurement& measurement,
                               const ReportOptions& options = {});

}  // namespace npat::evsel
