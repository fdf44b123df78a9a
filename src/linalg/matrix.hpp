// Small dense linear algebra. The paper relies on Eigen 3 for the normal
// equations β̂ = (XᵀX)⁻¹Xᵀy; this module provides the (offline) equivalent:
// a row-major dense matrix with the handful of operations the statistics
// layer needs. Sizes are tiny (design matrices n×p with p ≤ 4), so clarity
// wins over blocking/vectorization tricks.
#pragma once

#include <vector>

#include "util/types.hpp"

namespace npat::linalg {

using Vector = std::vector<double>;

class Matrix {
 public:
  Matrix() = default;
  Matrix(usize rows, usize cols, double fill = 0.0);

  static Matrix identity(usize n);

  usize rows() const noexcept { return rows_; }
  usize cols() const noexcept { return cols_; }
  bool empty() const noexcept { return data_.empty(); }

  double& operator()(usize r, usize c) noexcept { return data_[r * cols_ + c]; }
  double operator()(usize r, usize c) const noexcept { return data_[r * cols_ + c]; }

  Matrix transposed() const;

  Matrix operator*(const Matrix& rhs) const;
  Vector operator*(const Vector& rhs) const;

 private:
  usize rows_ = 0;
  usize cols_ = 0;
  std::vector<double> data_;
};

}  // namespace npat::linalg
