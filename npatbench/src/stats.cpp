#include "stats.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace npatbench {

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const usize n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2.0;
}

Quartiles quartiles(std::vector<double> values) {
  NPAT_CHECK_MSG(values.size() >= 2, "quartiles need at least two values");
  std::sort(values.begin(), values.end());
  // statistics.quantiles(method="exclusive"): cut point i of n=4 sits at
  // position i * (len + 1) / 4 (1-based), interpolated linearly and
  // clamped to the first/last gap.
  const i64 len = static_cast<i64>(values.size());
  const i64 m = len + 1;
  double cut[3] = {};
  for (i64 i = 1; i <= 3; ++i) {
    const i64 j = std::clamp<i64>(i * m / 4, 1, len - 1);
    const i64 delta = i * m - j * 4;
    cut[i - 1] = (values[static_cast<usize>(j - 1)] * static_cast<double>(4 - delta) +
                  values[static_cast<usize>(j)] * static_cast<double>(delta)) /
                 4.0;
  }
  return {cut[0], cut[1], cut[2]};
}

Tail tail(std::vector<double> values) {
  NPAT_CHECK_MSG(values.size() > kTailBeyond, "a tail needs more than ten samples");
  std::sort(values.begin(), values.end());
  const usize n = values.size();
  Tail out;
  out.value = values[n - kTailBeyond - 1];
  out.percentile = 100.0 * static_cast<double>(n - kTailBeyond) / static_cast<double>(n);
  out.samples = n;
  return out;
}

}  // namespace npatbench
