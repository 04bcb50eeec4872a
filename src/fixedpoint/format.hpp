// Two's-complement fixed-point formats.
//
// A format is <w, iwl>: w total bits including sign, iwl integer bits
// (excluding sign), hence f = w - 1 - iwl fractional bits. The DSE varies w
// per dataflow node while iwl is fixed by the node's dynamic range, exactly
// as in classical word-length optimization flows.
#pragma once

#include <cstdint>
#include <string>

namespace ace::fixedpoint {

/// Signed two's-complement fixed-point format descriptor.
class Format {
 public:
  /// Construct <word_length, integer_bits>. Constraints:
  /// word_length in [2, 52] (so the grid is exact in a double's mantissa),
  /// integer_bits in [0, word_length - 1]. Throws std::invalid_argument.
  Format(int word_length, int integer_bits);

  /// Format whose integer bits are clamped to what word_length can hold:
  /// a word too narrow for a node's dynamic range keeps its sign and as
  /// many integer bits as fit (all fractional precision is lost and the
  /// value saturates) — exactly how an under-provisioned hardware register
  /// behaves. Used by the benchmark kernels so every lattice point of the
  /// DSE is simulable.
  static Format with_clamped_integer_bits(int word_length, int integer_bits);

  int word_length() const { return w_; }
  int integer_bits() const { return iwl_; }
  int fractional_bits() const { return w_ - 1 - iwl_; }

  /// Quantization step q = 2^-f.
  double step() const;

  /// Most negative representable value: -2^iwl.
  double min_value() const;

  /// Most positive representable value: 2^iwl - q.
  double max_value() const;

  bool operator==(const Format& rhs) const = default;

  std::string to_string() const;

 private:
  int w_;
  int iwl_;
};

/// Integer bits a magnitude needs: the smallest b with m < 2^b, i.e. the
/// binary exponent of m — an exact power of two 2^k needs k + 1 bits, and
/// a magnitude below 1/2 gives b < 0. Returns 0 when m is not positive
/// (or NaN) and 1024 (max_exponent) when m is infinite.
int integer_bits_for(double magnitude);

}  // namespace ace::fixedpoint
