#include "linalg/matrix.hpp"

#include <gtest/gtest.h>

#include "util/check.hpp"

namespace npat::linalg {
namespace {

TEST(Matrix, Identity) {
  const Matrix eye = Matrix::identity(3);
  for (usize r = 0; r < 3; ++r) {
    for (usize c = 0; c < 3; ++c) {
      EXPECT_DOUBLE_EQ(eye(r, c), r == c ? 1.0 : 0.0);
    }
  }
}

TEST(Matrix, Transpose) {
  Matrix m(3, 2);  // rows {1, 2}, {3, 4}, {5, 6}
  for (usize r = 0; r < 3; ++r) {
    m(r, 0) = static_cast<double>(2 * r + 1);
    m(r, 1) = static_cast<double>(2 * r + 2);
  }
  const Matrix t = m.transposed();
  EXPECT_EQ(t.rows(), 2u);
  EXPECT_EQ(t.cols(), 3u);
  EXPECT_DOUBLE_EQ(t(0, 2), 5.0);
  EXPECT_DOUBLE_EQ(t(1, 0), 2.0);
}

TEST(Matrix, MatMul) {
  Matrix a(2, 2);  // {1, 2}, {3, 4}
  Matrix b(2, 2);  // {5, 6}, {7, 8}
  for (usize i = 0; i < 4; ++i) {
    a(i / 2, i % 2) = static_cast<double>(i + 1);
    b(i / 2, i % 2) = static_cast<double>(i + 5);
  }
  const Matrix c = a * b;
  EXPECT_DOUBLE_EQ(c(0, 0), 19.0);
  EXPECT_DOUBLE_EQ(c(0, 1), 22.0);
  EXPECT_DOUBLE_EQ(c(1, 0), 43.0);
  EXPECT_DOUBLE_EQ(c(1, 1), 50.0);
}

TEST(Matrix, MatMulShapeMismatchThrows) {
  Matrix a(2, 3);
  Matrix b(2, 3);
  EXPECT_THROW(a * b, CheckError);
}

TEST(Matrix, MatVec) {
  Matrix a(2, 3);  // {1, 0, 2}, {0, 3, 0}
  a(0, 0) = 1;
  a(0, 2) = 2;
  a(1, 1) = 3;
  const Vector y = a * Vector{1, 2, 3};
  ASSERT_EQ(y.size(), 2u);
  EXPECT_DOUBLE_EQ(y[0], 7.0);
  EXPECT_DOUBLE_EQ(y[1], 6.0);
}

}  // namespace
}  // namespace npat::linalg
