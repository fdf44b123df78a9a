#include "stats/tdist.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "util/check.hpp"

namespace npat::stats {
namespace {

TEST(IncompleteBeta, Boundaries) {
  EXPECT_DOUBLE_EQ(incomplete_beta(2.0, 3.0, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(incomplete_beta(2.0, 3.0, 1.0), 1.0);
}

TEST(IncompleteBeta, KnownValues) {
  // I_x(1,1) = x (uniform CDF).
  EXPECT_NEAR(incomplete_beta(1.0, 1.0, 0.3), 0.3, 1e-12);
  // I_x(2,2) = 3x² − 2x³.
  const double x = 0.4;
  EXPECT_NEAR(incomplete_beta(2.0, 2.0, x), 3 * x * x - 2 * x * x * x, 1e-12);
  // Symmetry: I_x(a,b) = 1 − I_{1−x}(b,a).
  EXPECT_NEAR(incomplete_beta(2.5, 1.5, 0.7), 1.0 - incomplete_beta(1.5, 2.5, 0.3), 1e-12);
}

TEST(IncompleteBeta, InvalidArgsThrow) {
  EXPECT_THROW(incomplete_beta(0.0, 1.0, 0.5), CheckError);
  EXPECT_THROW(incomplete_beta(1.0, 1.0, 1.5), CheckError);
}

TEST(StudentT, CdfSymmetry) {
  // The two-tailed p of ±t is the same, and t = 0 leaves all mass outside.
  for (double df : {1.0, 5.0, 30.0}) {
    EXPECT_NEAR(two_tailed_p(0.0, df), 1.0, 1e-12);
    EXPECT_NEAR(two_tailed_p(1.7, df), two_tailed_p(-1.7, df), 1e-12);
  }
}

TEST(StudentT, KnownQuantiles) {
  // t(df=1) is Cauchy: CDF(1) = 0.75, so two tails hold 0.5.
  EXPECT_NEAR(two_tailed_p(1.0, 1.0), 0.5, 1e-10);
  // Classic table value: t_{0.975, 10} ≈ 2.228.
  EXPECT_NEAR(two_tailed_p(2.228, 10.0), 0.05, 1e-3);
  // Large df approaches the normal: CDF(1.96) ≈ 0.975.
  EXPECT_NEAR(two_tailed_p(1.96, 1e6), 0.05, 2e-3);
}

TEST(StudentT, TwoTailedP) {
  EXPECT_NEAR(two_tailed_p(0.0, 10.0), 1.0, 1e-12);
  EXPECT_NEAR(two_tailed_p(2.228, 10.0), 0.05, 1e-3);
  EXPECT_LT(two_tailed_p(10.0, 10.0), 1e-5);
}

}  // namespace
}  // namespace npat::stats
