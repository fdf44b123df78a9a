#include "stats/multiple_comparisons.hpp"

#include <algorithm>
#include <numeric>

#include "util/check.hpp"

namespace npat::stats {

std::vector<double> holm_adjust(std::span<const double> p_values) {
  const usize m = p_values.size();
  std::vector<usize> order(m);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(),
            [&](usize a, usize b) { return p_values[a] < p_values[b]; });

  std::vector<double> out(m, 0.0);
  double running_max = 0.0;
  for (usize rank = 0; rank < m; ++rank) {
    const usize idx = order[rank];
    NPAT_CHECK_MSG(p_values[idx] >= 0.0 && p_values[idx] <= 1.0, "p-values must be in [0,1]");
    const double adjusted = std::min(1.0, p_values[idx] * static_cast<double>(m - rank));
    running_max = std::max(running_max, adjusted);  // enforce monotonicity
    out[idx] = running_max;
  }
  return out;
}

}  // namespace npat::stats
