#include "stats/ttest.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "util/check.hpp"
#include "util/random.hpp"

namespace npat::stats {
namespace {

TEST(Welch, DetectsClearDifference) {
  util::Xoshiro256ss rng(1);
  std::vector<double> a;
  std::vector<double> b;
  for (int i = 0; i < 20; ++i) {
    a.push_back(rng.normal(100.0, 5.0));
    b.push_back(rng.normal(150.0, 5.0));
  }
  const auto result = welch_t_test(a, b);
  EXPECT_TRUE(result.significant(0.001));
  EXPECT_GT(result.confidence, 0.999);
  EXPECT_GT(result.mean_delta, 40.0);
  EXPECT_GT(result.t, 0.0);  // b larger -> positive t
}

TEST(Welch, NoFalsePositiveOnIdenticalDistributions) {
  util::Xoshiro256ss rng(2);
  int significant = 0;
  constexpr int kTrials = 200;
  for (int trial = 0; trial < kTrials; ++trial) {
    std::vector<double> a;
    std::vector<double> b;
    for (int i = 0; i < 10; ++i) {
      a.push_back(rng.normal(50.0, 10.0));
      b.push_back(rng.normal(50.0, 10.0));
    }
    significant += welch_t_test(a, b).significant(0.05) ? 1 : 0;
  }
  // Expected false positive rate ~5 %.
  EXPECT_LT(significant, kTrials / 8);
}

TEST(Welch, HandlesUnequalSampleSizes) {
  // Welch's method is used "since the test should be possible for any
  // user-chosen program runs".
  util::Xoshiro256ss rng(3);
  std::vector<double> a;
  std::vector<double> b;
  for (int i = 0; i < 5; ++i) a.push_back(rng.normal(10.0, 1.0));
  for (int i = 0; i < 50; ++i) b.push_back(rng.normal(12.0, 1.0));
  const auto result = welch_t_test(a, b);
  EXPECT_TRUE(result.significant(0.01));
  EXPECT_LT(result.df, 53.0);  // Welch df is not n1+n2−2
}

TEST(Welch, RelativeDelta) {
  const std::vector<double> a = {100, 100, 100, 100.0001};
  const std::vector<double> b = {200, 200, 200, 200.0001};
  const auto result = welch_t_test(a, b);
  EXPECT_NEAR(result.relative_delta, 1.0, 1e-6);  // +100 %
}

TEST(Welch, DegenerateIdenticalConstants) {
  const std::vector<double> a = {5, 5, 5};
  const std::vector<double> b = {5, 5, 5};
  const auto result = welch_t_test(a, b);
  EXPECT_TRUE(result.degenerate);
  EXPECT_FALSE(result.significant());
  EXPECT_DOUBLE_EQ(result.p_two_tailed, 1.0);
}

TEST(Welch, DegenerateDistinctConstants) {
  const std::vector<double> a = {5, 5, 5};
  const std::vector<double> b = {7, 7, 7};
  const auto result = welch_t_test(a, b);
  EXPECT_FALSE(result.degenerate);
  EXPECT_TRUE(result.significant(0.001));
  EXPECT_DOUBLE_EQ(result.p_two_tailed, 0.0);
}

TEST(Welch, TooFewSamplesThrows) {
  const std::vector<double> one = {1.0};
  const std::vector<double> two = {1.0, 2.0};
  EXPECT_THROW(welch_t_test(one, two), CheckError);
}

TEST(Student, MatchesWelchForEqualSizesAndVariances) {
  util::Xoshiro256ss rng(4);
  std::vector<double> a;
  std::vector<double> b;
  for (int i = 0; i < 30; ++i) {
    a.push_back(rng.normal(10.0, 2.0));
    b.push_back(rng.normal(11.0, 2.0));
  }
  const auto welch = welch_t_test(a, b);
  const auto student = student_t_test(a, b);
  EXPECT_NEAR(welch.t, student.t, 0.01);
  EXPECT_NEAR(welch.p_two_tailed, student.p_two_tailed, 0.01);
}

TEST(Student, PooledDf) {
  const std::vector<double> a = {1, 2, 3, 4};
  const std::vector<double> b = {2, 3, 4, 5, 6};
  const auto result = student_t_test(a, b);
  EXPECT_DOUBLE_EQ(result.df, 7.0);  // n1 + n2 − 2
}

TEST(TTest, DispatchesOnKind) {
  const std::vector<double> a = {1, 2, 3, 4};
  const std::vector<double> b = {5, 6, 7, 9};
  const auto welch = t_test(a, b, TTestKind::kWelch);
  const auto student = t_test(a, b, TTestKind::kStudentPooled);
  EXPECT_NE(welch.df, student.df);
}

}  // namespace
}  // namespace npat::stats

namespace npat::stats {
namespace {

TEST(Permutation, DetectsClearShift) {
  util::Xoshiro256ss rng(21);
  std::vector<double> a;
  std::vector<double> b;
  for (int i = 0; i < 12; ++i) {
    a.push_back(rng.normal(100, 5));
    b.push_back(rng.normal(140, 5));
  }
  const auto result = permutation_t_test(a, b, 1000, 7);
  EXPECT_LT(result.p_two_tailed, 0.01);
  EXPECT_GT(result.mean_delta, 30.0);
}

TEST(Permutation, CalibratedUnderTheNull) {
  // With identical distributions the p-value should be ~uniform: count
  // rejections at alpha = 0.2 over repeated draws.
  util::Xoshiro256ss rng(22);
  int rejections = 0;
  constexpr int kTrials = 60;
  for (int trial = 0; trial < kTrials; ++trial) {
    std::vector<double> a;
    std::vector<double> b;
    for (int i = 0; i < 8; ++i) {
      a.push_back(rng.normal(10, 3));
      b.push_back(rng.normal(10, 3));
    }
    const auto result = permutation_t_test(a, b, 400, 100 + trial);
    rejections += result.p_two_tailed < 0.2 ? 1 : 0;
  }
  // Expected ~12; allow generous slack.
  EXPECT_LT(rejections, kTrials / 2);
  EXPECT_GT(rejections, 0);
}

TEST(Permutation, WorksWithoutNormality) {
  // Heavily skewed (log-normal) samples, the situation the paper's
  // normality caveat is about: a clear multiplicative shift must still be
  // detected.
  util::Xoshiro256ss rng(23);
  std::vector<double> a;
  std::vector<double> b;
  for (int i = 0; i < 15; ++i) {
    a.push_back(10.0 * std::exp(rng.normal(0.0, 0.8)));
    b.push_back(40.0 * std::exp(rng.normal(0.0, 0.8)));
  }
  const auto result = permutation_t_test(a, b, 1000, 9);
  EXPECT_LT(result.p_two_tailed, 0.02);
}

TEST(Permutation, ValidatesInput) {
  const std::vector<double> a = {1, 2, 3};
  const std::vector<double> tiny = {1.0};
  EXPECT_THROW(permutation_t_test(tiny, a), CheckError);
  EXPECT_THROW(permutation_t_test(a, a, 10), CheckError);  // too few permutations
}

}  // namespace
}  // namespace npat::stats
