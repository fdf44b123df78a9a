#include "linalg/solve.hpp"

#include <gtest/gtest.h>

#include "util/random.hpp"

namespace npat::linalg {
namespace {

TEST(Cholesky, SolvesSpdSystem) {
  // A = LLᵀ with known solution: {4, 2}, {2, 3}.
  Matrix a(2, 2);
  a(0, 0) = 4;
  a(0, 1) = a(1, 0) = 2;
  a(1, 1) = 3;
  const auto x = cholesky_solve(a, {10, 8});
  ASSERT_TRUE(x.has_value());
  const Vector check = a * *x;
  EXPECT_NEAR(check[0], 10.0, 1e-10);
  EXPECT_NEAR(check[1], 8.0, 1e-10);
}

TEST(Cholesky, RejectsIndefinite) {
  Matrix a(2, 2);  // {0, 1}, {1, 0}
  a(0, 1) = a(1, 0) = 1;
  EXPECT_FALSE(cholesky_solve(a, {1, 1}).has_value());
}

TEST(Qr, DecomposesAndReconstructs) {
  Matrix a(3, 2);  // {1, 2}, {3, 4}, {5, 6}
  for (usize r = 0; r < 3; ++r) {
    a(r, 0) = static_cast<double>(2 * r + 1);
    a(r, 1) = static_cast<double>(2 * r + 2);
  }
  const auto qr = qr_decompose(a);
  ASSERT_TRUE(qr.has_value());
  const Matrix reconstructed = qr->q * qr->r;
  // Columns of Q are orthonormal.
  const Matrix qtq = qr->q.transposed() * qr->q;
  for (usize c = 0; c < 2; ++c) {
    for (usize r = 0; r < 3; ++r) EXPECT_NEAR(reconstructed(r, c), a(r, c), 1e-10);
    for (usize k = 0; k < 2; ++k) EXPECT_NEAR(qtq(k, c), k == c ? 1.0 : 0.0, 1e-10);
  }
}

TEST(Qr, DetectsRankDeficiency) {
  Matrix a(3, 2);  // second column = 2 * first
  for (usize r = 0; r < 3; ++r) {
    a(r, 0) = static_cast<double>(r + 1);
    a(r, 1) = 2.0 * a(r, 0);
  }
  EXPECT_FALSE(qr_decompose(a).has_value());
}

TEST(Qr, LeastSquaresExactForConsistentSystem) {
  Matrix a(3, 2);  // {1, 0}, {0, 1}, {1, 1}
  a(0, 0) = a(1, 1) = a(2, 0) = a(2, 1) = 1;
  const Vector b = a * Vector{2.0, -1.0};
  const auto x = qr_least_squares(a, b);
  ASSERT_TRUE(x.has_value());
  EXPECT_NEAR((*x)[0], 2.0, 1e-10);
  EXPECT_NEAR((*x)[1], -1.0, 1e-10);
}

TEST(LeastSquares, RecoversLineFromNoisyData) {
  // y = 3 + 2x + noise, the paper's β̂ = (XᵀX)⁻¹Xᵀy derivation.
  util::Xoshiro256ss rng(5);
  const usize n = 200;
  Matrix design(n, 2);
  Vector y(n);
  for (usize i = 0; i < n; ++i) {
    const double x = static_cast<double>(i) / 10.0;
    design(i, 0) = 1.0;
    design(i, 1) = x;
    y[i] = 3.0 + 2.0 * x + rng.normal(0.0, 0.1);
  }
  const auto fit = least_squares(design, y);
  ASSERT_TRUE(fit.has_value());
  EXPECT_NEAR(fit->beta[0], 3.0, 0.05);
  EXPECT_NEAR(fit->beta[1], 2.0, 0.01);
  EXPECT_FALSE(fit->used_qr_fallback);
  EXPECT_GT(fit->residual_ss, 0.0);
}

TEST(LeastSquares, AgreesWithQrOnIllConditionedSystem) {
  // Nearly collinear columns: the normal equations lose precision; the
  // result must still be close to the QR answer.
  const usize n = 50;
  Matrix design(n, 2);
  Vector y(n);
  for (usize i = 0; i < n; ++i) {
    const double x = 1.0 + static_cast<double>(i) * 1e-5;
    design(i, 0) = 1.0;
    design(i, 1) = x;
    y[i] = 2.0 * x;
  }
  const auto ls = least_squares(design, y);
  const auto qr = qr_least_squares(design, y);
  ASSERT_TRUE(ls.has_value());
  ASSERT_TRUE(qr.has_value());
  const Vector fit_ls = design * ls->beta;
  const Vector fit_qr = design * *qr;
  for (usize i = 0; i < n; ++i) EXPECT_NEAR(fit_ls[i], fit_qr[i], 1e-6);
}

TEST(LeastSquares, QuadraticDesign) {
  const usize n = 30;
  Matrix design(n, 3);
  Vector y(n);
  for (usize i = 0; i < n; ++i) {
    const double x = static_cast<double>(i);
    design(i, 0) = 1.0;
    design(i, 1) = x;
    design(i, 2) = x * x;
    y[i] = 1.0 - 0.5 * x + 0.25 * x * x;
  }
  const auto fit = least_squares(design, y);
  ASSERT_TRUE(fit.has_value());
  EXPECT_NEAR(fit->beta[0], 1.0, 1e-8);
  EXPECT_NEAR(fit->beta[1], -0.5, 1e-8);
  EXPECT_NEAR(fit->beta[2], 0.25, 1e-10);
  EXPECT_NEAR(fit->residual_ss, 0.0, 1e-8);
}

}  // namespace
}  // namespace npat::linalg
