#include "linalg/matrix.hpp"

#include <stdexcept>

namespace ace::linalg {

Matrix::Matrix(std::initializer_list<std::initializer_list<double>> init) {
  rows_ = init.size();
  cols_ = rows_ == 0 ? 0 : init.begin()->size();
  data_.reserve(rows_ * cols_);
  for (const auto& row : init) {
    if (row.size() != cols_)
      throw std::invalid_argument("Matrix: ragged initializer");
    data_.insert(data_.end(), row.begin(), row.end());
  }
}

Matrix Matrix::identity(std::size_t n) {
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

void Matrix::throw_out_of_range() {
  throw std::out_of_range("Matrix::operator(): index out of range");
}

Vector Matrix::operator*(const Vector& v) const {
  if (cols_ != v.size())
    throw std::invalid_argument("Matrix*Vector: dimension mismatch");
  Vector out(rows_);
  for (std::size_t r = 0; r < rows_; ++r) {
    double acc = 0.0;
    for (std::size_t c = 0; c < cols_; ++c) acc += data_[r * cols_ + c] * v[c];
    out[r] = acc;
  }
  return out;
}

Matrix Matrix::operator*(const Matrix& rhs) const {
  if (cols_ != rhs.rows_)
    throw std::invalid_argument("Matrix*Matrix: dimension mismatch");
  Matrix out(rows_, rhs.cols_);
  for (std::size_t r = 0; r < rows_; ++r)
    for (std::size_t k = 0; k < cols_; ++k) {
      const double a = data_[r * cols_ + k];
      // Sparsity short-circuit: only an exact zero is skippable.
      if (a == 0.0) continue;  // ace-lint: allow(float-equality)
      for (std::size_t c = 0; c < rhs.cols_; ++c)
        out(r, c) += a * rhs(k, c);
    }
  return out;
}

}  // namespace ace::linalg
