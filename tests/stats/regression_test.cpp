#include "stats/regression.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "util/random.hpp"

namespace npat::stats {
namespace {

TEST(Linear, ExactFit) {
  const std::vector<double> x = {0, 1, 2, 3, 4};
  std::vector<double> y;
  for (double v : x) y.push_back(3.0 + 2.0 * v);
  const auto fit = fit_linear(x, y);
  ASSERT_TRUE(fit.has_value());
  EXPECT_NEAR(fit->coefficients[0], 3.0, 1e-10);
  EXPECT_NEAR(fit->coefficients[1], 2.0, 1e-10);
  EXPECT_NEAR(fit->r_squared, 1.0, 1e-10);
  EXPECT_NEAR(fit->r, 1.0, 1e-10);
}

TEST(Linear, NegativeSlopeHasNegativeR) {
  const std::vector<double> x = {1, 2, 3, 4, 5};
  const std::vector<double> y = {10, 8, 6.1, 4, 2};
  const auto fit = fit_linear(x, y);
  ASSERT_TRUE(fit.has_value());
  EXPECT_LT(fit->r, -0.99);
}

TEST(Linear, ConstantResponseHasNoFit) {
  const std::vector<double> x = {1, 2, 3, 4};
  const std::vector<double> y = {5, 5, 5, 5};
  EXPECT_FALSE(fit_linear(x, y).has_value());
}

TEST(Quadratic, ExactFit) {
  const std::vector<double> x = {0, 1, 2, 3, 4, 5};
  std::vector<double> y;
  for (double v : x) y.push_back(1.0 - v + 0.5 * v * v);
  const auto fit = fit_quadratic(x, y);
  ASSERT_TRUE(fit.has_value());
  EXPECT_NEAR(fit->coefficients[2], 0.5, 1e-9);
  EXPECT_NEAR(fit->r_squared, 1.0, 1e-9);
}

TEST(Exponential, ExactFit) {
  const std::vector<double> x = {0, 1, 2, 3, 4};
  std::vector<double> y;
  for (double v : x) y.push_back(2.0 * std::exp(0.5 * v));
  const auto fit = fit_exponential(x, y);
  ASSERT_TRUE(fit.has_value());
  EXPECT_NEAR(fit->coefficients[0], 2.0, 1e-9);
  EXPECT_NEAR(fit->coefficients[1], 0.5, 1e-9);
  EXPECT_NEAR(fit->r_squared, 1.0, 1e-9);
}

TEST(Exponential, RejectsNonPositiveResponses) {
  const std::vector<double> x = {1, 2, 3};
  const std::vector<double> y = {1.0, -2.0, 3.0};
  EXPECT_FALSE(fit_exponential(x, y).has_value());
}

TEST(Exponential, DecayHasNegativeR) {
  const std::vector<double> x = {0, 1, 2, 3, 4};
  std::vector<double> y;
  for (double v : x) y.push_back(10.0 * std::exp(-0.8 * v));
  const auto fit = fit_exponential(x, y);
  ASSERT_TRUE(fit.has_value());
  EXPECT_LT(fit->r, -0.99);
}

TEST(FitAll, PicksRightFamilyForNoisyData) {
  util::Xoshiro256ss rng(6);
  std::vector<double> x;
  std::vector<double> y;
  for (int i = 1; i <= 40; ++i) {
    x.push_back(i);
    y.push_back(5.0 * i + rng.normal(0.0, 0.5));  // clearly linear
  }
  const auto fits = fit_all(x, y);
  ASSERT_GE(fits.size(), 2u);
  // Quadratic may slightly overfit; but the linear term must dominate and
  // R² must be near 1.
  EXPECT_GT(fits.front().r_squared, 0.999);
  EXPECT_GE(fits.front().r_squared, fits.back().r_squared);
}

TEST(FitAll, ExponentialWinsOnExponentialData) {
  std::vector<double> x;
  std::vector<double> y;
  for (int i = 0; i <= 10; ++i) {
    x.push_back(i);
    y.push_back(std::exp(0.9 * i));
  }
  const auto fits = fit_all(x, y);
  ASSERT_FALSE(fits.empty());
  EXPECT_EQ(fits.front().kind, FitKind::kExponential);
}

TEST(Fit, FormulaRendering) {
  Fit fit;
  fit.kind = FitKind::kLinear;
  fit.coefficients = {3.0, -2.0};
  EXPECT_EQ(fit.formula(2), "y = 3 - 2·x");
  fit.kind = FitKind::kExponential;
  fit.coefficients = {1.5, 0.25};
  EXPECT_EQ(fit.formula(2), "y = 1.5·e^(0.25·x)");
}

TEST(Fit, EvaluateMatchesModel) {
  Fit quad;
  quad.kind = FitKind::kQuadratic;
  quad.coefficients = {1.0, 2.0, 3.0};
  EXPECT_DOUBLE_EQ(quad.evaluate(2.0), 1.0 + 4.0 + 12.0);
}

TEST(RSquared, ConstantObservationsNullopt) {
  const std::vector<double> obs = {2, 2, 2};
  const std::vector<double> pred = {2, 2, 2};
  EXPECT_FALSE(r_squared(obs, pred).has_value());
}

TEST(RSquared, PerfectPrediction) {
  const std::vector<double> obs = {1, 2, 3};
  const auto r2 = r_squared(obs, obs);
  ASSERT_TRUE(r2.has_value());
  EXPECT_DOUBLE_EQ(*r2, 1.0);
}

}  // namespace
}  // namespace npat::stats
