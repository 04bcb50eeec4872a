#include "signal/fir.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <stdexcept>

#include "fixedpoint/format.hpp"

namespace ace::signal {

std::vector<double> design_lowpass_fir(std::size_t taps, double cutoff) {
  if (taps == 0) throw std::invalid_argument("design_lowpass_fir: taps >= 1");
  if (cutoff <= 0.0 || cutoff >= 0.5)
    throw std::invalid_argument("design_lowpass_fir: cutoff in (0, 0.5)");
  std::vector<double> h(taps);
  const double mid = static_cast<double>(taps - 1) / 2.0;
  for (std::size_t k = 0; k < taps; ++k) {
    const double t = static_cast<double>(k) - mid;
    const double x = 2.0 * std::numbers::pi * cutoff * t;
    // t is (k - mid) with mid a multiple of 0.5: the == 0 case is exact.
    const double sinc = t == 0.0  // ace-lint: allow(float-equality)
                            ? 2.0 * cutoff
                                 : std::sin(x) / (std::numbers::pi * t);
    const double window =
        0.54 - 0.46 * std::cos(2.0 * std::numbers::pi *
                               static_cast<double>(k) /
                               static_cast<double>(taps - 1));
    h[k] = taps == 1 ? 2.0 * cutoff : sinc * window;
  }
  // Normalize DC gain to 1.
  double sum = 0.0;
  for (double c : h) sum += c;
  if (sum != 0.0)  // ace-lint: allow(float-equality)
    for (double& c : h) c /= sum;
  return h;
}

FirFilter::FirFilter(std::vector<double> coefficients)
    : coeffs_(std::move(coefficients)) {
  if (coeffs_.empty())
    throw std::invalid_argument("FirFilter: empty coefficients");
}

std::vector<double> FirFilter::filter(const std::vector<double>& input) const {
  std::vector<double> out(input.size(), 0.0);
  for (std::size_t i = 0; i < input.size(); ++i) {
    double acc = 0.0;
    const std::size_t reach = std::min(i + 1, coeffs_.size());
    for (std::size_t k = 0; k < reach; ++k) acc += coeffs_[k] * input[i - k];
    out[i] = acc;
  }
  return out;
}

double FirFilter::l1_gain() const {
  double acc = 0.0;
  for (double c : coeffs_) acc += std::abs(c);
  return acc;
}

namespace {
int iwl_for_magnitude(double max_abs) {
  return std::max(fixedpoint::integer_bits_for(max_abs), 0);
}
void check_word_lengths(const std::vector<int>& w, std::size_t expected) {
  if (w.size() != expected)
    throw std::invalid_argument("QuantizedFir: wrong word-length count");
  for (int wl : w)
    if (wl < 2 || wl > 52)
      throw std::invalid_argument("QuantizedFir: word length out of [2, 52]");
}
}  // namespace

QuantizedFirFilter::QuantizedFirFilter(const FirFilter& reference,
                                       int coefficient_bits) {
  // Coefficients quantized once to a fixed high-precision format; the DSE
  // varies datapath word lengths only (as in the paper's setup).
  double max_coeff = 0.0;
  for (double c : reference.coefficients())
    max_coeff = std::max(max_coeff, std::abs(c));
  const int coeff_iwl = iwl_for_magnitude(max_coeff);
  const fixedpoint::Quantizer qc{fixedpoint::Format(coefficient_bits, coeff_iwl)};
  qcoeffs_.reserve(reference.taps());
  for (double c : reference.coefficients()) qcoeffs_.push_back(qc(c));

  // Products: |c·x| <= max|c| (inputs are < 1 in magnitude);
  // accumulator: bounded by the L1 gain.
  iwl_product_ = iwl_for_magnitude(max_coeff);
  iwl_accum_ = iwl_for_magnitude(reference.l1_gain());
}

std::vector<double> QuantizedFirFilter::filter(const std::vector<double>& input,
                                               const std::vector<int>& w) const {
  check_word_lengths(w, kVariables);
  const fixedpoint::Quantizer qmpy{fixedpoint::Format::with_clamped_integer_bits(w[0], iwl_product_)};
  const fixedpoint::Quantizer qadd{fixedpoint::Format::with_clamped_integer_bits(w[1], iwl_accum_)};

  std::vector<double> out(input.size(), 0.0);
  for (std::size_t i = 0; i < input.size(); ++i) {
    double acc = 0.0;
    const std::size_t reach = std::min(i + 1, qcoeffs_.size());
    for (std::size_t k = 0; k < reach; ++k) {
      // Each product is rounded to the multiplier grid and then to the
      // adder grid on entry; partial sums of adder-grid values stay on the
      // grid, so the accumulator itself needs no per-addition re-rounding.
      acc += qadd(qmpy(qcoeffs_[k] * input[i - k]));
    }
    out[i] = qadd(acc);  // Final store: range handling at adder width.
  }
  return out;
}

}  // namespace ace::signal
