#include "approx/adders.hpp"

#include <stdexcept>

namespace ace::approx {

namespace {

void check_params(int width, int degree, int max_degree) {
  if (width < 2 || width > 62)
    throw std::invalid_argument("approx adder: width must be in [2, 62]");
  if (degree < 0 || degree > max_degree)
    throw std::invalid_argument("approx adder: degree out of range");
}

std::uint64_t to_bits(std::int64_t v, int width) {
  const std::uint64_t mask = (std::uint64_t{1} << width) - 1;
  return static_cast<std::uint64_t>(v) & mask;
}

std::int64_t from_bits(std::uint64_t bits, int width) {
  const std::uint64_t sign = std::uint64_t{1} << (width - 1);
  const std::uint64_t mask = (std::uint64_t{1} << width) - 1;
  bits &= mask;
  if (bits & sign) return static_cast<std::int64_t>(bits) -
                          (std::int64_t{1} << width);
  return static_cast<std::int64_t>(bits);
}

}  // namespace

std::int64_t exact_add(std::int64_t a, std::int64_t b, int width) {
  check_params(width, 0, 0);
  return from_bits(to_bits(a, width) + to_bits(b, width), width);
}

LowerOrAdder::LowerOrAdder(int width, int degree)
    : width_(width), degree_(degree) {
  check_params(width, degree, width);
  low_mask_ = degree == 0 ? 0 : (std::uint64_t{1} << degree) - 1;
  carry_bit_ = degree == 0 ? 0 : std::uint64_t{1} << (degree - 1);
}

std::int64_t LowerOrAdder::add(std::int64_t a, std::int64_t b) const {
  const std::uint64_t ua = to_bits(a, width_);
  const std::uint64_t ub = to_bits(b, width_);
  if (degree_ == 0) return from_bits(ua + ub, width_);
  const std::uint64_t low = (ua | ub) & low_mask_;
  // Carry prediction: AND of the approximate part's MSBs.
  const std::uint64_t carry = ((ua & ub) & carry_bit_) ? 1 : 0;
  const std::uint64_t high =
      ((ua >> degree_) + (ub >> degree_) + carry) << degree_;
  return from_bits(high | low, width_);
}

}  // namespace ace::approx
