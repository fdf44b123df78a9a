#include "stats/descriptive.hpp"

#include <algorithm>
#include <cmath>

#include "util/check.hpp"

namespace npat::stats {

void Accumulator::add(double value) noexcept {
  if (count_ == 0) {
    min_ = value;
    max_ = value;
  } else {
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }
  ++count_;
  const double delta = value - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (value - mean_);
}

double Accumulator::variance() const noexcept {
  return count_ < 2 ? 0.0 : m2_ / static_cast<double>(count_ - 1);
}

double quantile_sorted(std::span<const double> sorted, double q) {
  NPAT_CHECK_MSG(!sorted.empty(), "quantile of empty sample");
  NPAT_CHECK_MSG(q >= 0.0 && q <= 1.0, "quantile must be in [0,1]");
  if (sorted.size() == 1) return sorted[0];
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const usize lo = static_cast<usize>(pos);
  const usize hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

double mean(std::span<const double> values) {
  Accumulator acc;
  for (double v : values) acc.add(v);
  return acc.mean();
}

double variance(std::span<const double> values) {
  Accumulator acc;
  for (double v : values) acc.add(v);
  return acc.variance();
}

double stddev(std::span<const double> values) { return std::sqrt(variance(values)); }

double median(std::span<const double> values) {
  NPAT_CHECK_MSG(!values.empty(), "median of empty sample");
  std::vector<double> sorted(values.begin(), values.end());
  std::sort(sorted.begin(), sorted.end());
  return quantile_sorted(sorted, 0.5);
}

double mad(std::span<const double> values) {
  const double center = median(values);
  std::vector<double> deviations;
  deviations.reserve(values.size());
  for (double v : values) deviations.push_back(std::fabs(v - center));
  std::sort(deviations.begin(), deviations.end());
  return quantile_sorted(deviations, 0.5);
}

}  // namespace npat::stats
