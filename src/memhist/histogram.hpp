// Memhist's latency histogram (paper §IV-B, Fig. 10). Counts of loads per
// latency interval are derived by subtracting adjacent threshold
// measurements; the subtraction "poses an error that cannot be avoided" —
// negative bins are flagged as uncertain rather than hidden. Two display
// modes: event occurrences, and event costs (occurrences × latency).
#pragma once

#include <string>
#include <vector>

#include "sim/machine.hpp"
#include "util/types.hpp"

namespace npat::memhist {

enum class HistogramMode : u8 { kOccurrences, kCosts };

struct LatencyBin {
  Cycles lo = 0;
  Cycles hi = 0;            // 0 = open-ended last bin
  double occurrences = 0.0;  // may be negative (uncertain sampling)
  bool uncertain = false;
  std::string annotation;   // e.g. "L2", "local memory"

  /// Latency charged per occurrence in cost mode (interval midpoint; 1.5×
  /// the lower bound for the open-ended bin).
  double representative_latency() const;
  double cost() const { return occurrences * representative_latency(); }
};

class LatencyHistogram {
 public:
  LatencyHistogram() = default;
  LatencyHistogram(std::vector<LatencyBin> bins, HistogramMode mode)
      : bins_(std::move(bins)), mode_(mode) {}

  const std::vector<LatencyBin>& bins() const noexcept { return bins_; }
  std::vector<LatencyBin>& bins() noexcept { return bins_; }
  HistogramMode mode() const noexcept { return mode_; }
  void set_mode(HistogramMode mode) noexcept { mode_ = mode; }

  /// Value of a bin under the current mode.
  double value(usize index) const;
  /// Index of the highest-valued bin (ignoring uncertain ones); nullopt if
  /// all bins are uncertain/empty.
  std::optional<usize> peak_bin() const;
  usize uncertain_bins() const;
  double total_occurrences() const;

  /// Fig. 10-style rendering: one bar per interval, grey uncertain bars,
  /// dominating bars truncated, annotations on the right.
  std::string render(const std::string& title) const;

 private:
  std::vector<LatencyBin> bins_;
  HistogramMode mode_ = HistogramMode::kOccurrences;
};

/// Annotates bins containing the machine's characteristic latencies
/// (L2/L3 hit, local DRAM, remote DRAM per hop distance) — the labels the
/// paper verified against Intel mlc.
void annotate_with_machine_levels(LatencyHistogram& histogram,
                                  const sim::MachineConfig& config);

}  // namespace npat::memhist
