// Approximate integer multiplier (paper intro refs [5]: Mrazek et al.
// scalable approximate multipliers; here the classical truncated design).
// Parameterized by an approximation degree like the adder, so multiplier
// precision is one more axis on the DSE lattice.
#pragma once

#include <cstdint>

namespace ace::approx {

/// Truncated (fixed-width style) multiplier: the `degree` least
/// significant columns of the partial-product matrix are discarded, i.e.
/// the low bits of each operand's contribution below column `degree` never
/// enter the array. Implemented as sign × magnitude with the magnitude
/// product's low columns dropped.
class TruncatedMultiplier {
 public:
  /// Operand width in [2, 30] bits, degree in [0, 2·width]. Throws.
  TruncatedMultiplier(int width, int degree);

  std::int64_t multiply(std::int64_t a, std::int64_t b) const;

  int width() const { return width_; }
  int degree() const { return degree_; }

 private:
  int width_;
  int degree_;
};

}  // namespace ace::approx
