// Output noise power — the accuracy metric used by the paper's four
// word-length benchmarks (λ = -P: higher accuracy = lower noise power).
#pragma once

#include <vector>

namespace ace::metrics {

/// Mean squared error between an approximate and a reference sequence.
/// Throws std::invalid_argument on size mismatch or empty input.
double noise_power(const std::vector<double>& approx,
                   const std::vector<double>& reference);

/// Same over interleaved complex data (re, im pairs share one power).
double noise_power_complex(const std::vector<double>& approx_re,
                           const std::vector<double>& approx_im,
                           const std::vector<double>& ref_re,
                           const std::vector<double>& ref_im);

/// Linear power -> dB (10·log10). Clamps at -400 dB for zero power so the
/// exhaustive sweeps never produce -inf surface points.
double to_db(double power_linear);

}  // namespace ace::metrics
