#include "linalg/vector.hpp"

#include <cmath>
#include <stdexcept>

namespace ace::linalg {

namespace {
void require_same_size(const Vector& a, const Vector& b, const char* op) {
  if (a.size() != b.size())
    throw std::invalid_argument(std::string("Vector ") + op +
                                ": size mismatch");
}
}  // namespace

Vector& Vector::operator+=(const Vector& rhs) {
  require_same_size(*this, rhs, "+=");
  for (std::size_t i = 0; i < size(); ++i) data_[i] += rhs.data_[i];
  return *this;
}

Vector& Vector::operator-=(const Vector& rhs) {
  require_same_size(*this, rhs, "-=");
  for (std::size_t i = 0; i < size(); ++i) data_[i] -= rhs.data_[i];
  return *this;
}

Vector& Vector::operator*=(double s) {
  for (auto& x : data_) x *= s;
  return *this;
}

double Vector::dot(const Vector& rhs) const {
  require_same_size(*this, rhs, "dot");
  double acc = 0.0;
  for (std::size_t i = 0; i < size(); ++i) acc += data_[i] * rhs.data_[i];
  return acc;
}

double Vector::norm_inf() const {
  double m = 0.0;
  for (double x : data_) m = std::max(m, std::abs(x));
  return m;
}

}  // namespace ace::linalg
