// Approximate integer adder — the "inexact operators" approximation
// source of the paper's introduction (its refs [3] Gupta et al., [4]
// Kahng & Kang). The adder is parameterized by an approximation degree
// (number of inexact low-order bits); degree 0 is the exact adder, so the
// degree forms the integer DSE lattice the kriging engine explores (the
// approx_fir kernel, core/benchmarks.cpp).
//
// It operates on two's-complement values embedded in int64 with a given
// operand width; results are exact at the architectural level (no UB),
// deterministic, and match the published architecture's behaviour.
#pragma once

#include <cstdint>

namespace ace::approx {

/// Lower-part-OR adder (LOA, Mahdiani et al.): the low `degree` bits are
/// OR-ed instead of added; the carry into the exact upper part is the AND
/// of the operands' MSBs of the approximate part.
class LowerOrAdder {
 public:
  /// `width` in [2, 62], degree in [0, width]. Throws std::invalid_argument.
  LowerOrAdder(int width, int degree);

  std::int64_t add(std::int64_t a, std::int64_t b) const;

  int width() const { return width_; }
  int degree() const { return degree_; }

 private:
  int width_;
  int degree_;
  std::uint64_t low_mask_;
  std::uint64_t carry_bit_;
};

/// Exact reference addition at the given width (wraps modulo 2^width,
/// two's complement) — the golden model for the adder above.
std::int64_t exact_add(std::int64_t a, std::int64_t b, int width);

}  // namespace ace::approx
