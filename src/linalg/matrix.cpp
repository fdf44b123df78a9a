#include "linalg/matrix.hpp"

#include "util/check.hpp"

namespace npat::linalg {

Matrix::Matrix(usize rows, usize cols, double fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

Matrix Matrix::identity(usize n) {
  Matrix m(n, n);
  for (usize i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

Matrix Matrix::transposed() const {
  Matrix t(cols_, rows_);
  for (usize r = 0; r < rows_; ++r) {
    for (usize c = 0; c < cols_; ++c) t(c, r) = (*this)(r, c);
  }
  return t;
}

Matrix Matrix::operator*(const Matrix& rhs) const {
  NPAT_CHECK_MSG(cols_ == rhs.rows_, "matmul shape mismatch");
  Matrix out(rows_, rhs.cols_);
  for (usize i = 0; i < rows_; ++i) {
    for (usize k = 0; k < cols_; ++k) {
      const double a = (*this)(i, k);
      if (a == 0.0) continue;
      for (usize j = 0; j < rhs.cols_; ++j) out(i, j) += a * rhs(k, j);
    }
  }
  return out;
}

Vector Matrix::operator*(const Vector& rhs) const {
  NPAT_CHECK_MSG(cols_ == rhs.size(), "matvec shape mismatch");
  Vector out(rows_, 0.0);
  for (usize i = 0; i < rows_; ++i) {
    double acc = 0.0;
    for (usize j = 0; j < cols_; ++j) acc += (*this)(i, j) * rhs[j];
    out[i] = acc;
  }
  return out;
}

}  // namespace npat::linalg
