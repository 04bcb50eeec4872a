#include "fixedpoint/format.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>
#include <stdexcept>

namespace ace::fixedpoint {

Format::Format(int word_length, int integer_bits)
    : w_(word_length), iwl_(integer_bits) {
  if (w_ < 2 || w_ > 52)
    throw std::invalid_argument("Format: word_length must be in [2, 52]");
  if (iwl_ < 0 || iwl_ > w_ - 1)
    throw std::invalid_argument(
        "Format: integer_bits must be in [0, word_length - 1]");
}

int integer_bits_for(double magnitude) {
  if (!(magnitude > 0.0)) return 0;
  if (std::isinf(magnitude)) return std::numeric_limits<double>::max_exponent;
  // magnitude = f · 2^exponent with f in [1/2, 1), so 2^(exponent−1) <=
  // magnitude < 2^exponent — exact, unlike a ceil(log2(·)).
  int exponent = 0;
  (void)std::frexp(magnitude, &exponent);
  return exponent;
}

double Format::step() const { return std::ldexp(1.0, -fractional_bits()); }

double Format::min_value() const { return -std::ldexp(1.0, iwl_); }

double Format::max_value() const {
  return std::ldexp(1.0, iwl_) - step();
}

Format Format::with_clamped_integer_bits(int word_length, int integer_bits) {
  const int clamped =
      std::min(std::max(integer_bits, 0), word_length - 1);
  return Format(word_length, clamped);
}

std::string Format::to_string() const {
  std::ostringstream ss;
  ss << "<" << w_ << "," << iwl_ << ">";
  return ss.str();
}

}  // namespace ace::fixedpoint
