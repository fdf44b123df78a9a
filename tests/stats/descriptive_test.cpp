#include "stats/descriptive.hpp"

#include <gtest/gtest.h>

#include "util/check.hpp"

namespace npat::stats {
namespace {

TEST(Accumulator, MeanVarianceBessel) {
  Accumulator acc;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) acc.add(v);
  EXPECT_EQ(acc.count(), 8u);
  EXPECT_DOUBLE_EQ(acc.mean(), 5.0);
  // Bessel-corrected variance is 32/7 (the population variance is 4).
  EXPECT_NEAR(acc.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(acc.min(), 2.0);
  EXPECT_DOUBLE_EQ(acc.max(), 9.0);
}

TEST(Accumulator, SingleSampleVarianceZero) {
  Accumulator acc;
  acc.add(3.0);
  EXPECT_DOUBLE_EQ(acc.variance(), 0.0);
}

TEST(Quantile, SortedInterpolation) {
  const std::vector<double> sorted = {1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(quantile_sorted(sorted, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile_sorted(sorted, 1.0), 5.0);
  EXPECT_DOUBLE_EQ(quantile_sorted(sorted, 0.5), 3.0);
  EXPECT_DOUBLE_EQ(quantile_sorted(sorted, 0.25), 2.0);
  EXPECT_THROW(quantile_sorted(sorted, 1.5), CheckError);
}

}  // namespace
}  // namespace npat::stats
