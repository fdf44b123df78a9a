#include "stats/multiple_comparisons.hpp"

#include <gtest/gtest.h>

#include <algorithm>

namespace npat::stats {
namespace {

TEST(Holm, StepDownOrdering) {
  const std::vector<double> p = {0.01, 0.04, 0.03, 0.005};
  const auto adjusted = holm_adjust(p);
  // Sorted p: 0.005(x4), 0.01(x3), 0.03(x2), 0.04(x1), monotone max.
  EXPECT_DOUBLE_EQ(adjusted[3], 0.02);
  EXPECT_DOUBLE_EQ(adjusted[0], 0.03);
  EXPECT_DOUBLE_EQ(adjusted[2], 0.06);
  EXPECT_DOUBLE_EQ(adjusted[1], 0.06);  // monotonicity enforced
}

TEST(Holm, NeverLessStrictThanRaw) {
  const std::vector<double> p = {0.2, 0.01, 0.6, 0.03, 0.001};
  const auto adjusted = holm_adjust(p);
  for (usize i = 0; i < p.size(); ++i) EXPECT_GE(adjusted[i], p[i]);
}

TEST(Holm, UniformlyMorePowerfulThanBonferroni) {
  const std::vector<double> p = {0.01, 0.02, 0.03, 0.04};
  const auto holm = holm_adjust(p);
  // Classic Bonferroni: p' = min(1, p·m).
  const double m = static_cast<double>(p.size());
  for (usize i = 0; i < p.size(); ++i) EXPECT_LE(holm[i], std::min(1.0, p[i] * m));
}

TEST(Holm, SingleComparisonUnchanged) {
  const std::vector<double> p = {0.04};
  EXPECT_DOUBLE_EQ(holm_adjust(p)[0], 0.04);
}

}  // namespace
}  // namespace npat::stats
