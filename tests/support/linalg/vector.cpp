#include "linalg/vector.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace ace::linalg {

Vector operator-(Vector lhs, const Vector& rhs) {
  if (lhs.size() != rhs.size())
    throw std::invalid_argument("Vector -: size mismatch");
  for (std::size_t i = 0; i < lhs.size(); ++i) lhs.data_[i] -= rhs.data_[i];
  return lhs;
}

double Vector::norm_inf() const {
  double m = 0.0;
  for (double x : data_) m = std::max(m, std::abs(x));
  return m;
}

}  // namespace ace::linalg
