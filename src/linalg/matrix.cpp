#include "linalg/matrix.hpp"

#include <algorithm>
#include <cmath>
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

namespace {
void require_same_shape(const Matrix& a, const Matrix& b, const char* op) {
  if (a.rows() != b.rows() || a.cols() != b.cols())
    throw std::invalid_argument(std::string("Matrix ") + op +
                                ": shape mismatch");
}
}  // namespace

Matrix& Matrix::operator+=(const Matrix& rhs) {
  require_same_shape(*this, rhs, "+=");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += rhs.data_[i];
  return *this;
}

Matrix& Matrix::operator-=(const Matrix& rhs) {
  require_same_shape(*this, rhs, "-=");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] -= rhs.data_[i];
  return *this;
}

Matrix& Matrix::operator*=(double s) {
  for (auto& x : data_) x *= s;
  return *this;
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

double max_abs(const double* data, std::size_t count) {
  // Four independent accumulators break the latency chain of one serial
  // std::max. Each lane skips NaN entries exactly as the serial chain
  // does (std::max(m, NaN) keeps m) and max is exact, so the result is the
  // serial chain's value bit for bit.
  double m0 = 0.0;
  double m1 = 0.0;
  double m2 = 0.0;
  double m3 = 0.0;
  std::size_t i = 0;
  for (; i + 4 <= count; i += 4) {
    m0 = std::max(m0, std::abs(data[i]));
    m1 = std::max(m1, std::abs(data[i + 1]));
    m2 = std::max(m2, std::abs(data[i + 2]));
    m3 = std::max(m3, std::abs(data[i + 3]));
  }
  for (; i < count; ++i) m0 = std::max(m0, std::abs(data[i]));
  return std::max(std::max(m0, m1), std::max(m2, m3));
}

double Matrix::max_abs() const { return linalg::max_abs(data(), data_.size()); }

}  // namespace ace::linalg
