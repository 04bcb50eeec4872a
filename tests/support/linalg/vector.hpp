// Dense double-precision vector — part of the tests' value-type oracle
// (tests/support). The library itself solves on raw buffers
// (src/linalg/lu.hpp); these types exist so tests can assemble and solve
// a system independently of kriging::KrigingSystem.
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

  std::size_t size() const { return data_.size(); }

  /// Checked access — throws std::out_of_range.
  double& operator[](std::size_t i) { return data_.at(i); }
  double operator[](std::size_t i) const { return data_.at(i); }

  const std::vector<double>& data() const { return data_; }
  std::vector<double>& data() { return data_; }

  /// Entrywise difference (a residual A·x − b); throws
  /// std::invalid_argument on a size mismatch.
  friend Vector operator-(Vector lhs, const Vector& rhs);

  bool operator==(const Vector& rhs) const = default;

  /// Max-abs norm.
  double norm_inf() const;

 private:
  std::vector<double> data_;
};

}  // namespace ace::linalg
