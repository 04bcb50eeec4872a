// Dense double-precision vector.
//
// The kriging system (paper Eq. 7-10) is tiny — typically 3 to 10 support
// points — so the library favours clarity and bounds checking over SIMD.
#pragma once

#include <cstddef>
#include <initializer_list>
#include <vector>

namespace ace::linalg {

/// Dense vector of doubles with checked element access.
class Vector {
 public:
  Vector() = default;
  explicit Vector(std::size_t n, double fill = 0.0) : data_(n, fill) {}
  Vector(std::initializer_list<double> init) : data_(init) {}
  explicit Vector(std::vector<double> data) : data_(std::move(data)) {}

  std::size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  /// Checked access — throws std::out_of_range.
  double& operator[](std::size_t i) { return data_.at(i); }
  double operator[](std::size_t i) const { return data_.at(i); }

  const std::vector<double>& data() const { return data_; }
  std::vector<double>& data() { return data_; }

  Vector& operator+=(const Vector& rhs);
  Vector& operator-=(const Vector& rhs);
  Vector& operator*=(double s);

  friend Vector operator+(Vector lhs, const Vector& rhs) { return lhs += rhs; }
  friend Vector operator-(Vector lhs, const Vector& rhs) { return lhs -= rhs; }
  friend Vector operator*(Vector lhs, double s) { return lhs *= s; }
  friend Vector operator*(double s, Vector rhs) { return rhs *= s; }

  bool operator==(const Vector& rhs) const = default;

  /// Dot product; throws on size mismatch.
  double dot(const Vector& rhs) const;

  /// Max-abs norm.
  double norm_inf() const;

 private:
  std::vector<double> data_;
};

}  // namespace ace::linalg
