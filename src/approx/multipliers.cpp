#include "approx/multipliers.hpp"

#include <cstdlib>
#include <stdexcept>

namespace ace::approx {

namespace {

void check_width(int width, int max_width) {
  if (width < 2 || width > max_width)
    throw std::invalid_argument("approx multiplier: width out of range");
}

}  // namespace

TruncatedMultiplier::TruncatedMultiplier(int width, int degree)
    : width_(width), degree_(degree) {
  check_width(width, 30);
  if (degree < 0 || degree > 2 * width)
    throw std::invalid_argument("TruncatedMultiplier: degree out of range");
}

std::int64_t TruncatedMultiplier::multiply(std::int64_t a,
                                           std::int64_t b) const {
  const bool negative = (a < 0) != (b < 0);
  const std::uint64_t ua = static_cast<std::uint64_t>(std::llabs(a));
  const std::uint64_t ub = static_cast<std::uint64_t>(std::llabs(b));
  // Drop the low `degree` columns of the product (truncation of the
  // partial-product array, the classical fixed-width multiplier cut).
  std::uint64_t product = ua * ub;
  if (degree_ > 0) product = (product >> degree_) << degree_;
  const std::int64_t magnitude = static_cast<std::int64_t>(product);
  return negative ? -magnitude : magnitude;
}

}  // namespace ace::approx
