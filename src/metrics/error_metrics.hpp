// Interpolation-quality metric of the paper's Table I for non-noise-power
// benchmarks: ε is the relative difference (Eq. 12). The noise-power form
// (Eq. 11, ε in equivalent bits) is computed in the dB domain by
// dse::interpolation_epsilon.
#pragma once

namespace ace::metrics {

/// Relative interpolation error |λ̂ − λ| / |λ| (Eq. 12).
/// Throws std::invalid_argument when λ is zero.
double epsilon_relative(double lambda_hat, double lambda_true);

}  // namespace ace::metrics
