// Summary statistics for benchmark samples.
//
// A timing is reported as its median and its tail: the highest percentile
// that still has at least ten samples beyond it, together with the sample
// count it was taken from. Quartiles follow Python's
// `statistics.quantiles(values, n=4)` (the default "exclusive" method),
// which is how run-to-run spread is judged when two commits are compared.
#pragma once

#include <vector>

#include "util/types.hpp"

namespace npatbench {

using npat::i64;
using npat::usize;

/// Median (mean of the two middle values for an even count); 0 if empty.
double median(std::vector<double> values);

struct Quartiles {
  double q1 = 0.0;
  double q2 = 0.0;
  double q3 = 0.0;
};

/// Python `statistics.quantiles(values, n=4)`; needs at least two values.
Quartiles quartiles(std::vector<double> values);

struct Tail {
  double value = 0.0;
  /// Percentile the value sits at: 100 * (n - 10) / n.
  double percentile = 0.0;
  usize samples = 0;
};

/// Samples beyond the tail value: the tail is the highest percentile that
/// keeps at least this many samples above it.
inline constexpr usize kTailBeyond = 10;

/// The tail of `values`; needs more than kTailBeyond values.
Tail tail(std::vector<double> values);

}  // namespace npatbench
