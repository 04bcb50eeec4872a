#include "fixedpoint/quantizer.hpp"

#include <cmath>

namespace ace::fixedpoint {

Quantizer::Quantizer(Format format, RoundingMode rounding,
                     OverflowMode overflow)
    : format_(format),
      rounding_(rounding),
      overflow_(overflow),
      step_(format.step()),
      inv_step_(1.0 / format.step()),
      min_(format.min_value()),
      max_(format.max_value()),
      span_(max_ - min_ + format.step()) {}

double Quantizer::out_of_range(double value) const {
  if (overflow_ == OverflowMode::kSaturate)
    return value < min_ ? min_ : max_;
  // Two's-complement wrap: shift into [min, min + span).
  const double offset = value - min_;
  const double wrapped = offset - span_ * std::floor(offset / span_);
  return min_ + wrapped;
}

}  // namespace ace::fixedpoint
