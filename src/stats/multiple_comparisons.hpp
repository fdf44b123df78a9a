// Multiple-comparisons corrections. The paper (§III-B.1) warns that
// screening hundreds of counters inflates false positives and names the
// Bonferroni correction as the remedy; EvSel applies its Holm step-down
// form when flagging significant counters.
#pragma once

#include <span>
#include <vector>

#include "util/types.hpp"

namespace npat::stats {

/// Holm–Bonferroni step-down adjustment (uniformly more powerful while
/// controlling the family-wise error rate). Output is in input order.
std::vector<double> holm_adjust(std::span<const double> p_values);

}  // namespace npat::stats
