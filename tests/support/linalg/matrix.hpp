// Dense row-major double-precision matrix — part of the tests' value-type
// oracle (tests/support, see vector.hpp).
#pragma once

#include <cstddef>
#include <initializer_list>
#include <vector>

#include "linalg/vector.hpp"

namespace ace::linalg {

/// Dense row-major matrix of doubles with checked element access.
class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  /// Construct from nested initializer lists; all rows must be equal length.
  Matrix(std::initializer_list<std::initializer_list<double>> init);

  static Matrix identity(std::size_t n);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  bool square() const { return rows_ == cols_; }

  /// Checked element access: throws std::out_of_range.
  double& operator()(std::size_t r, std::size_t c) {
    if (r >= rows_ || c >= cols_) throw_out_of_range();
    return data_[r * cols_ + c];
  }
  double operator()(std::size_t r, std::size_t c) const {
    if (r >= rows_ || c >= cols_) throw_out_of_range();
    return data_[r * cols_ + c];
  }

  /// Row-major storage (rows()·cols() entries) for the in-place kernels.
  double* data() { return data_.data(); }
  const double* data() const { return data_.data(); }

  bool operator==(const Matrix& rhs) const = default;

  /// Matrix-vector product; throws on dimension mismatch.
  Vector operator*(const Vector& v) const;

  /// Matrix-matrix product; throws on dimension mismatch.
  Matrix operator*(const Matrix& rhs) const;

 private:
  [[noreturn]] static void throw_out_of_range();

  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

}  // namespace ace::linalg
