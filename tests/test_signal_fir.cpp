#include "signal/fir.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <numbers>
#include <stdexcept>

#include "metrics/noise_power.hpp"
#include "signal/generator.hpp"
#include "util/rng.hpp"

namespace {

namespace s = ace::signal;

TEST(DesignLowpassFir, ValidationAndDcGain) {
  EXPECT_THROW((void)s::design_lowpass_fir(0, 0.2), std::invalid_argument);
  EXPECT_THROW((void)s::design_lowpass_fir(8, 0.0), std::invalid_argument);
  EXPECT_THROW((void)s::design_lowpass_fir(8, 0.5), std::invalid_argument);
  const auto h = s::design_lowpass_fir(64, 0.18);
  EXPECT_EQ(h.size(), 64u);
  double dc = 0.0;
  for (double c : h) dc += c;
  EXPECT_NEAR(dc, 1.0, 1e-12);
}

TEST(DesignLowpassFir, SymmetricLinearPhase) {
  const auto h = s::design_lowpass_fir(33, 0.25);
  for (std::size_t k = 0; k < h.size() / 2; ++k)
    EXPECT_NEAR(h[k], h[h.size() - 1 - k], 1e-12) << "tap " << k;
}

TEST(DesignLowpassFir, AttenuatesStopband) {
  const auto h = s::design_lowpass_fir(64, 0.1);
  // |H(f)| at f = 0.05 (passband) vs f = 0.3 (stopband).
  auto mag = [&](double f) {
    double re = 0.0, im = 0.0;
    for (std::size_t k = 0; k < h.size(); ++k) {
      const double phase =
          -2.0 * std::numbers::pi * f * static_cast<double>(k);
      re += h[k] * std::cos(phase);
      im += h[k] * std::sin(phase);
    }
    return std::sqrt(re * re + im * im);
  };
  EXPECT_GT(mag(0.05), 0.9);
  EXPECT_LT(mag(0.3), 0.01);
}

TEST(DesignLowpassFir, SingleTapIsAUnitGainPassThrough) {
  const auto h = s::design_lowpass_fir(1, 0.2);
  ASSERT_EQ(h.size(), 1u);
  EXPECT_DOUBLE_EQ(h[0], 1.0);
}

TEST(FirFilter, MatchesManualConvolution) {
  const s::FirFilter fir({0.5, 0.25, -0.125});
  const std::vector<double> x = {1.0, 0.0, 2.0, -1.0};
  const auto y = fir.filter(x);
  ASSERT_EQ(y.size(), 4u);
  EXPECT_DOUBLE_EQ(y[0], 0.5);
  EXPECT_DOUBLE_EQ(y[1], 0.25);
  EXPECT_DOUBLE_EQ(y[2], 1.0 - 0.125);
  EXPECT_DOUBLE_EQ(y[3], -0.5 + 0.5 + 0.0);
}

TEST(FirFilter, ValidationAndGain) {
  EXPECT_THROW(s::FirFilter({}), std::invalid_argument);
  const s::FirFilter fir({0.5, -0.5});
  EXPECT_DOUBLE_EQ(fir.l1_gain(), 1.0);
  EXPECT_EQ(fir.taps(), 2u);
}

TEST(FirFilter, ImpulseResponseIsTheCoefficients) {
  const auto h = s::design_lowpass_fir(16, 0.2);
  const s::FirFilter fir(h);
  std::vector<double> impulse(24, 0.0);
  impulse[0] = 1.0;
  const auto y = fir.filter(impulse);
  for (std::size_t k = 0; k < h.size(); ++k)
    EXPECT_DOUBLE_EQ(y[k], h[k]) << "tap " << k;
  for (std::size_t k = h.size(); k < y.size(); ++k)
    EXPECT_EQ(y[k], 0.0) << "sample " << k;
}

TEST(FirFilter, DelayedInputDelaysTheOutput) {
  const s::FirFilter fir(s::design_lowpass_fir(64, 0.18));
  ace::util::Rng rng(18);
  const auto x = s::noisy_multitone(rng, 200);
  const std::size_t delay = 9;
  std::vector<double> delayed(delay, 0.0);
  delayed.insert(delayed.end(), x.begin(), x.end());
  const auto out = fir.filter(x);
  const auto out_delayed = fir.filter(delayed);
  for (std::size_t i = 0; i < x.size(); ++i)
    EXPECT_DOUBLE_EQ(out_delayed[i + delay], out[i]) << "sample " << i;
}

TEST(QuantizedFir, WordLengthValidation) {
  const s::FirFilter fir(s::design_lowpass_fir(8, 0.2));
  const s::QuantizedFirFilter q(fir);
  EXPECT_THROW((void)q.filter({0.1}, {8}), std::invalid_argument);
  EXPECT_THROW((void)q.filter({0.1}, {8, 1}), std::invalid_argument);
  EXPECT_THROW((void)q.filter({0.1}, {8, 60}), std::invalid_argument);
}

TEST(QuantizedFir, WideWordsConvergeToReference) {
  ace::util::Rng rng(1);
  const auto input = s::noisy_multitone(rng, 256);
  const s::FirFilter fir(s::design_lowpass_fir(64, 0.18));
  const s::QuantizedFirFilter q(fir, /*coefficient_bits=*/24);
  const auto ref = fir.filter(input);
  const auto approx = q.filter(input, {32, 32});
  EXPECT_LT(ace::metrics::noise_power(approx, ref), 1e-12);
}

/// Property: noise power decreases (accuracy increases) as either word
/// length widens — the monotone surface of the paper's Fig. 1.
class FirMonotoneTest : public ::testing::TestWithParam<int> {};

TEST_P(FirMonotoneTest, NoiseShrinksWithWiderWords) {
  const int w = GetParam();
  ace::util::Rng rng(2);
  const auto input = s::noisy_multitone(rng, 256);
  const s::FirFilter fir(s::design_lowpass_fir(64, 0.18));
  const s::QuantizedFirFilter q(fir);
  const auto ref = fir.filter(input);
  const double p_narrow =
      ace::metrics::noise_power(q.filter(input, {w, w}), ref);
  const double p_wide =
      ace::metrics::noise_power(q.filter(input, {w + 3, w + 3}), ref);
  EXPECT_LT(p_wide, p_narrow);
}

INSTANTIATE_TEST_SUITE_P(Widths, FirMonotoneTest,
                         ::testing::Values(4, 6, 8, 10, 12));

TEST(QuantizedFir, NarrowingEitherWordRaisesTheNoise) {
  // Both the multiplier outputs and the accumulator are noise sources.
  ace::util::Rng rng(19);
  const auto input = s::noisy_multitone(rng, 1024);
  const s::FirFilter fir(s::design_lowpass_fir(64, 0.18));
  const s::QuantizedFirFilter q(fir);
  const auto ref = fir.filter(input);
  const double p_base =
      ace::metrics::noise_power(q.filter(input, {16, 16}), ref);
  EXPECT_GT(ace::metrics::noise_power(q.filter(input, {8, 16}), ref), p_base);
  EXPECT_GT(ace::metrics::noise_power(q.filter(input, {16, 8}), ref), p_base);
}

TEST(QuantizedFir, NoiseFallsAboutSixDbPerBit) {
  // Rounding noise power scales with q² = 2^(−2f): at moderate word
  // lengths, where the rounding errors are white, four more bits on both
  // words should buy about four equivalent bits, 0.5·log2 of the ratio.
  // 24-bit coefficients keep their own error floor out of the way.
  ace::util::Rng rng(20);
  const auto input = s::noisy_multitone(rng, 2048);
  const s::FirFilter fir(s::design_lowpass_fir(64, 0.18));
  const s::QuantizedFirFilter q(fir, /*coefficient_bits=*/24);
  const auto ref = fir.filter(input);
  for (const int w : {12, 14}) {
    const double narrow =
        ace::metrics::noise_power(q.filter(input, {w, w}), ref);
    const double wide =
        ace::metrics::noise_power(q.filter(input, {w + 4, w + 4}), ref);
    const double bits = 0.5 * std::log2(narrow / wide);
    EXPECT_GT(bits, 3.0) << "w " << w;
    EXPECT_LT(bits, 5.0) << "w " << w;
  }
}

TEST(QuantizedFir, CoefficientBitsSetTheWideWordNoiseFloor) {
  // With a wide datapath only the pre-quantized coefficients err, so the
  // floor falls as the coefficient format widens.
  ace::util::Rng rng(21);
  const auto input = s::noisy_multitone(rng, 1024);
  const s::FirFilter fir(s::design_lowpass_fir(64, 0.18));
  const auto ref = fir.filter(input);
  double previous = 0.0;
  for (const int bits : {16, 12, 8}) {
    const s::QuantizedFirFilter q(fir, bits);
    const double floor =
        ace::metrics::noise_power(q.filter(input, {40, 40}), ref);
    EXPECT_GT(floor, previous) << "coefficient bits " << bits;
    previous = floor;
  }
}

TEST(QuantizedFir, DeterministicAcrossCalls) {
  ace::util::Rng rng(3);
  const auto input = s::noisy_multitone(rng, 128);
  const s::FirFilter fir(s::design_lowpass_fir(32, 0.2));
  const s::QuantizedFirFilter q(fir);
  EXPECT_EQ(q.filter(input, {8, 10}), q.filter(input, {8, 10}));
}

TEST(Generators, ShapesAndDeterminism) {
  ace::util::Rng a(9), b(9);
  EXPECT_EQ(s::white_noise(a, 64), s::white_noise(b, 64));
  EXPECT_THROW((void)s::white_noise(a, 0), std::invalid_argument);
  const auto tones = s::sine_mixture({0.1, 0.2}, 128, 0.8);
  double peak = 0.0;
  for (double x : tones) peak = std::max(peak, std::abs(x));
  EXPECT_NEAR(peak, 0.8, 1e-12);
  EXPECT_THROW((void)s::sine_mixture({}, 10), std::invalid_argument);
  EXPECT_THROW((void)s::sine_mixture({0.1}, 0), std::invalid_argument);
  const auto mt = s::noisy_multitone(a, 100, 0.9);
  for (double x : mt) EXPECT_LE(std::abs(x), 0.9 + 1e-12);
}

TEST(Generators, NoisyMultitoneHitsItsPeakAndFollowsTheSeed) {
  ace::util::Rng a(22), b(22), c(23);
  const auto x = s::noisy_multitone(a, 512, 0.7);
  double peak = 0.0;
  for (double v : x) peak = std::max(peak, std::abs(v));
  EXPECT_NEAR(peak, 0.7, 1e-12);
  EXPECT_EQ(s::noisy_multitone(b, 512, 0.7), x);
  EXPECT_NE(s::noisy_multitone(c, 512, 0.7), x);
}

}  // namespace
