// 8th-order IIR benchmark (Nv = 5): four cascaded direct-form-I biquads.
//
// Word-length mapping (documented in DESIGN.md):
//   w[0..3]: accumulator word-length of biquad k (quantizes the DF-I sum),
//   w[4]:    shared inter-stage data word-length (quantizes the stored
//            output each biquad feeds forward and back).
// Integer bits per site are calibrated from a reference run.
#pragma once

#include <cstddef>
#include <vector>

#include "signal/biquad.hpp"

namespace ace::signal {

/// Double-precision cascade (reference).
class IirCascade {
 public:
  /// Throws std::invalid_argument on empty or unstable sections.
  explicit IirCascade(std::vector<BiquadCoefficients> sections);

  std::vector<double> filter(const std::vector<double>& input) const;

  const std::vector<BiquadCoefficients>& sections() const { return sections_; }

 private:
  std::vector<BiquadCoefficients> sections_;
};

/// Fixed-point cascade emulation with Nv = sections().size() + 1 variables.
class QuantizedIirCascade {
 public:
  /// Calibrates integer bits from a reference run on `calibration_input`.
  QuantizedIirCascade(const IirCascade& reference,
                      const std::vector<double>& calibration_input,
                      int margin_bits = 1);

  std::size_t variable_count() const { return accum_iwl_.size() + 1; }

  /// Simulate with word lengths w (size variable_count()).
  /// Throws std::invalid_argument on wrong size / out-of-range entries.
  std::vector<double> filter(const std::vector<double>& input,
                             const std::vector<int>& w) const;

 private:
  std::vector<BiquadCoefficients> sections_;
  std::vector<int> accum_iwl_;  ///< Per-biquad accumulator integer bits.
  int data_iwl_ = 0;            ///< Inter-stage data integer bits.
};

}  // namespace ace::signal
