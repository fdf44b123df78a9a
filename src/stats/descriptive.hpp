// Descriptive statistics. Welford's online algorithm provides numerically
// stable mean/variance; variance uses Bessel's correction (n−1) as the
// paper does for t-tests on measured counter samples.
#pragma once

#include <span>
#include <vector>

#include "util/types.hpp"

namespace npat::stats {

/// Online mean/variance accumulator (Welford).
class Accumulator {
 public:
  void add(double value) noexcept;

  usize count() const noexcept { return count_; }
  double mean() const noexcept { return mean_; }
  /// Sample variance with Bessel's correction; 0 for fewer than 2 samples.
  double variance() const noexcept;
  double min() const noexcept { return min_; }
  double max() const noexcept { return max_; }
  double sum() const noexcept { return mean_ * static_cast<double>(count_); }

 private:
  usize count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Linear-interpolated quantile of a *sorted* sample, q in [0,1].
double quantile_sorted(std::span<const double> sorted, double q);

double mean(std::span<const double> values);
/// Bessel-corrected sample variance.
double variance(std::span<const double> values);
double stddev(std::span<const double> values);

/// Median (copies & sorts internally).
double median(std::span<const double> values);
/// Median absolute deviation about the median, unscaled — multiply by
/// 1.4826 for a robust sigma estimate under normality. Robust outlier
/// screens (EvSel's repeated-run quarantine) use this instead of the
/// stddev, which the outlier itself inflates.
double mad(std::span<const double> values);

}  // namespace npat::stats
