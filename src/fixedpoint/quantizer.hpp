// Quantizers: map a real value onto a fixed-point grid with a selectable
// rounding mode and overflow policy. These emulate the finite-precision
// arithmetic the paper's word-length benchmarks simulate (its refs [12][13]
// are the Mentor AC datatypes and SystemC fixed-point types).
#pragma once

#include <cmath>

#include "fixedpoint/format.hpp"

// round_half_even() relies on (|s| + 2^52) - 2^52 being evaluated exactly
// as written; fast-math may reassociate it to |s| and silently change every
// quantized λ (DESIGN.md, the simulator kernels' numerical contract).
#ifdef __FAST_MATH__
#error "fixedpoint/quantizer.hpp needs strict IEEE-754 evaluation: build without -ffast-math"
#endif

namespace ace::fixedpoint {

/// Round half to even, bitwise equal to std::nearbyint under the default
/// round-to-nearest mode (sign of zero, NaN and ±inf included) but without
/// the libm call and its floating-point environment save/restore. Adding
/// 2^52 pushes the fraction bits out of a double's mantissa, so the FPU's
/// own round-to-nearest-even does the rounding; |s| >= 2^52 is already
/// integral and passes through, as do ±inf and NaN.
inline double round_half_even(double s) {
  constexpr double kTwo52 = 4503599627370496.0;
  const double magnitude = std::fabs(s);
  if (!(magnitude < kTwo52)) return s;
  return std::copysign((magnitude + kTwo52) - kTwo52, s);
}

/// How values are mapped onto the grid.
enum class RoundingMode {
  kTruncate,         ///< Floor toward -inf (cheapest hardware).
  kRoundNearest,     ///< Round half up (adds +q/2 bias under double rounding).
  kRoundConvergent,  ///< Round half to even (bias-free; SystemC SC_RND_CONV).
};

/// What happens outside the representable range.
enum class OverflowMode {
  kSaturate,  ///< Clamp to [min_value, max_value].
  kWrap,      ///< Two's-complement wrap-around.
};

/// A quantizer bound to a format + modes. Stateless and cheap to copy; the
/// hot path is quantize(), inline and branch-light, with the rare
/// saturate/wrap case out of line.
class Quantizer {
 public:
  /// Defaults to convergent rounding: cascaded quantizers (multiplier grid
  /// feeding a coarser adder grid) hit exact halfway ties systematically,
  /// and half-up rounding would turn those ties into a DC bias that
  /// dominates the output noise floor.
  explicit Quantizer(Format format,
                     RoundingMode rounding = RoundingMode::kRoundConvergent,
                     OverflowMode overflow = OverflowMode::kSaturate);

  /// Quantize one value onto the grid.
  double quantize(double x) const {
    const double scaled = x * inv_step_;
    double grid;
    switch (rounding_) {
      case RoundingMode::kTruncate:
        grid = std::floor(scaled);
        break;
      case RoundingMode::kRoundNearest:
        grid = std::floor(scaled + 0.5);
        break;
      case RoundingMode::kRoundConvergent:
      default:
        grid = round_half_even(scaled);
        break;
    }
    const double value = grid * step_;
    if (value >= min_ && value <= max_) return value;
    return out_of_range(value);
  }

  /// Convenience call operator.
  double operator()(double x) const { return quantize(x); }

  const Format& format() const { return format_; }
  RoundingMode rounding() const { return rounding_; }
  OverflowMode overflow() const { return overflow_; }

 private:
  /// Saturates or wraps a grid value outside [min, max] (or NaN).
  double out_of_range(double value) const;

  Format format_;
  RoundingMode rounding_;
  OverflowMode overflow_;
  double step_;
  double inv_step_;
  double min_;
  double max_;
  double span_;  // 2^(iwl+1): wrap period in value units.
};

}  // namespace ace::fixedpoint
