#include "signal/iir.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <numbers>
#include <stdexcept>

#include "metrics/noise_power.hpp"
#include "signal/generator.hpp"
#include "util/rng.hpp"

namespace {

namespace s = ace::signal;

/// |H(e^{j2πf})| of one biquad.
double biquad_magnitude(const s::BiquadCoefficients& c, double f) {
  const std::complex<double> z = std::polar(1.0, 2.0 * std::numbers::pi * f);
  const std::complex<double> num = c.b0 + c.b1 / z + c.b2 / (z * z);
  const std::complex<double> den = 1.0 + c.a1 / z + c.a2 / (z * z);
  return std::abs(num / den);
}

double dc_gain(const s::BiquadCoefficients& c) {
  return (c.b0 + c.b1 + c.b2) / (1.0 + c.a1 + c.a2);
}

TEST(BiquadDesign, Validation) {
  EXPECT_THROW((void)s::design_lowpass_biquad(0.0, 1.0), std::invalid_argument);
  EXPECT_THROW((void)s::design_lowpass_biquad(0.5, 1.0), std::invalid_argument);
  EXPECT_THROW((void)s::design_lowpass_biquad(0.2, 0.0), std::invalid_argument);
}

TEST(BiquadDesign, DcGainIsUnity) {
  const auto c = s::design_lowpass_biquad(0.1, 0.707);
  // H(1) = (b0 + b1 + b2) / (1 + a1 + a2).
  const double gain = (c.b0 + c.b1 + c.b2) / (1.0 + c.a1 + c.a2);
  EXPECT_NEAR(gain, 1.0, 1e-10);
  EXPECT_TRUE(c.is_stable());
}

TEST(BiquadStability, TriangleCondition) {
  s::BiquadCoefficients c;
  c.a1 = 0.0;
  c.a2 = 0.5;
  EXPECT_TRUE(c.is_stable());
  c.a2 = 1.1;
  EXPECT_FALSE(c.is_stable());
  c.a2 = 0.2;
  c.a1 = 1.3;
  EXPECT_FALSE(c.is_stable());
}

TEST(Butterworth, ValidationAndSectionCount) {
  EXPECT_THROW((void)s::design_butterworth_lowpass(3, 0.1),
               std::invalid_argument);
  EXPECT_THROW((void)s::design_butterworth_lowpass(0, 0.1),
               std::invalid_argument);
  const auto sections = s::design_butterworth_lowpass(8, 0.12);
  EXPECT_EQ(sections.size(), 4u);
  for (const auto& c : sections) EXPECT_TRUE(c.is_stable());
}

TEST(Butterworth, MagnitudeResponseIsLowpass) {
  const auto sections = s::design_butterworth_lowpass(8, 0.12);
  auto cascade_mag = [&](double f) {
    double mag = 1.0;
    for (const auto& c : sections) {
      const double w = 2.0 * std::numbers::pi * f;
      const std::complex<double> z = std::polar(1.0, w);
      const std::complex<double> num =
          c.b0 + c.b1 / z + c.b2 / (z * z);
      const std::complex<double> den = 1.0 + c.a1 / z + c.a2 / (z * z);
      mag *= std::abs(num / den);
    }
    return mag;
  };
  EXPECT_NEAR(cascade_mag(0.001), 1.0, 1e-3);       // Passband.
  EXPECT_NEAR(cascade_mag(0.12), 1.0 / std::sqrt(2.0), 0.05);  // -3 dB point.
  EXPECT_LT(cascade_mag(0.3), 1e-3);                // Stopband.
}

TEST(Biquad, ImpulseResponseMatchesDifferenceEquation) {
  s::BiquadCoefficients c;
  c.b0 = 1.0;
  c.a1 = -0.5;  // y[n] = x[n] + 0.5·y[n-1].
  s::Biquad bq(c);
  EXPECT_DOUBLE_EQ(bq.process(1.0), 1.0);
  EXPECT_DOUBLE_EQ(bq.process(0.0), 0.5);
  EXPECT_DOUBLE_EQ(bq.process(0.0), 0.25);
  bq.reset();
  EXPECT_DOUBLE_EQ(bq.process(1.0), 1.0);
}

TEST(IirCascade, Validation) {
  EXPECT_THROW(s::IirCascade({}), std::invalid_argument);
  s::BiquadCoefficients unstable;
  unstable.a2 = 1.5;
  EXPECT_THROW(s::IirCascade({unstable}), std::invalid_argument);
}

TEST(IirCascade, MatchesSingleBiquadWhenOneSection) {
  const auto c = s::design_lowpass_biquad(0.15, 0.9);
  const s::IirCascade cascade({c});
  s::Biquad bq(c);
  ace::util::Rng rng(4);
  const auto input = s::white_noise(rng, 64);
  const auto out = cascade.filter(input);
  for (std::size_t i = 0; i < input.size(); ++i)
    EXPECT_DOUBLE_EQ(out[i], bq.process(input[i]));
}

TEST(BiquadDesign, GainAtCutoffEqualsQ) {
  // The RBJ lowpass prewarps its analogue prototype 1 / (s² + s/Q + 1) so
  // the cutoff maps exactly: |H| there is Q.
  for (const double q : {0.5, 0.707, 1.3, 3.0}) {
    const auto c = s::design_lowpass_biquad(0.1, q);
    EXPECT_NEAR(biquad_magnitude(c, 0.1), q, 1e-9) << "q " << q;
  }
}

TEST(BiquadDesign, NyquistGainIsZero) {
  // Both zeros sit at z = −1: H(−1) ∝ b0 − b1 + b2 = 0.
  for (const double cutoff : {0.02, 0.12, 0.25, 0.45}) {
    const auto c = s::design_lowpass_biquad(cutoff, 0.9);
    EXPECT_NEAR(c.b0 - c.b1 + c.b2, 0.0, 1e-15) << "cutoff " << cutoff;
    EXPECT_TRUE(c.is_stable()) << "cutoff " << cutoff;
  }
}

TEST(Butterworth, SectionsUseTheClassicalQualityFactors) {
  const std::size_t order = 8;
  const auto sections = s::design_butterworth_lowpass(order, 0.12);
  ASSERT_EQ(sections.size(), order / 2);
  for (std::size_t k = 0; k < sections.size(); ++k) {
    const double angle = (2.0 * static_cast<double>(k) + 1.0) *
                         std::numbers::pi / (2.0 * static_cast<double>(order));
    const auto expected =
        s::design_lowpass_biquad(0.12, 1.0 / (2.0 * std::cos(angle)));
    EXPECT_DOUBLE_EQ(sections[k].b0, expected.b0) << "section " << k;
    EXPECT_DOUBLE_EQ(sections[k].b1, expected.b1) << "section " << k;
    EXPECT_DOUBLE_EQ(sections[k].b2, expected.b2) << "section " << k;
    EXPECT_DOUBLE_EQ(sections[k].a1, expected.a1) << "section " << k;
    EXPECT_DOUBLE_EQ(sections[k].a2, expected.a2) << "section " << k;
  }
  // Second order is the single maximally flat section, Q = 1/√2.
  const auto second = s::design_butterworth_lowpass(2, 0.2);
  ASSERT_EQ(second.size(), 1u);
  EXPECT_NEAR(biquad_magnitude(second[0], 0.2), 1.0 / std::sqrt(2.0), 1e-9);
}

TEST(Butterworth, CascadeDcGainIsUnity) {
  for (const std::size_t order : {2u, 4u, 8u, 12u}) {
    double gain = 1.0;
    for (const auto& c : s::design_butterworth_lowpass(order, 0.15))
      gain *= dc_gain(c);
    EXPECT_NEAR(gain, 1.0, 1e-10) << "order " << order;
  }
}

TEST(Biquad, OnePoleImpulseEnergyMatchesClosedForm) {
  // y[n] = x[n] + a·y[n−1]: h[n] = aⁿ, Σ h² = 1 / (1 − a²).
  for (const double a : {0.5, -0.9}) {
    s::BiquadCoefficients c;
    c.b0 = 1.0;
    c.a1 = -a;
    s::Biquad bq(c);
    double energy = 0.0;
    for (int n = 0; n < 4096; ++n) {
      const double h = bq.process(n == 0 ? 1.0 : 0.0);
      energy += h * h;
    }
    EXPECT_NEAR(energy, 1.0 / (1.0 - a * a), 1e-9) << "a " << a;
  }
}

TEST(Biquad, ResetClearsBothDelayLines) {
  const auto c = s::design_lowpass_biquad(0.2, 1.5);
  s::Biquad used(c);
  ace::util::Rng rng(12);
  for (double x : s::white_noise(rng, 37)) (void)used.process(x);
  used.reset();
  s::Biquad fresh(c);
  for (int n = 0; n < 16; ++n) {
    const double x = n == 0 ? 1.0 : 0.0;
    EXPECT_DOUBLE_EQ(used.process(x), fresh.process(x)) << "sample " << n;
  }
}

TEST(IirCascade, IsLinear) {
  const s::IirCascade iir(s::design_butterworth_lowpass(8, 0.12));
  ace::util::Rng rng(13);
  const auto x = s::white_noise(rng, 256);
  const auto y = s::white_noise(rng, 256);
  std::vector<double> mix(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) mix[i] = 0.75 * x[i] - 2.0 * y[i];
  const auto fx = iir.filter(x);
  const auto fy = iir.filter(y);
  const auto fmix = iir.filter(mix);
  for (std::size_t i = 0; i < x.size(); ++i)
    EXPECT_NEAR(fmix[i], 0.75 * fx[i] - 2.0 * fy[i], 1e-12) << "sample " << i;
}

TEST(IirCascade, IsTimeInvariant) {
  // Leading zeros leave every delay line at zero, so the delayed run
  // repeats the original one sample for sample.
  const s::IirCascade iir(s::design_butterworth_lowpass(4, 0.2));
  ace::util::Rng rng(14);
  const auto x = s::noisy_multitone(rng, 128);
  const std::size_t delay = 7;
  std::vector<double> delayed(delay, 0.0);
  delayed.insert(delayed.end(), x.begin(), x.end());
  const auto out = iir.filter(x);
  const auto out_delayed = iir.filter(delayed);
  for (std::size_t i = 0; i < delay; ++i) EXPECT_EQ(out_delayed[i], 0.0);
  for (std::size_t i = 0; i < x.size(); ++i)
    EXPECT_EQ(out_delayed[i + delay], out[i]) << "sample " << i;
}

TEST(IirCascade, StepResponseSettlesAtUnityDcGain) {
  const s::IirCascade iir(s::design_butterworth_lowpass(8, 0.12));
  const auto out = iir.filter(std::vector<double>(2000, 1.0));
  EXPECT_NEAR(out.back(), 1.0, 1e-9);
}

TEST(QuantizedIir, ValidationAndVariableCount) {
  const s::IirCascade iir(s::design_butterworth_lowpass(8, 0.12));
  ace::util::Rng rng(5);
  const auto cal = s::noisy_multitone(rng, 256);
  const s::QuantizedIirCascade q(iir, cal);
  EXPECT_EQ(q.variable_count(), 5u);  // 4 accumulators + shared data.
  EXPECT_THROW((void)q.filter(cal, {8, 8, 8, 8}), std::invalid_argument);
  EXPECT_THROW((void)q.filter(cal, {8, 8, 8, 8, 1}), std::invalid_argument);
  EXPECT_THROW(s::QuantizedIirCascade(iir, {}), std::invalid_argument);
}

TEST(QuantizedIir, WideWordsConvergeToReference) {
  const s::IirCascade iir(s::design_butterworth_lowpass(8, 0.12));
  ace::util::Rng rng(6);
  const auto input = s::noisy_multitone(rng, 512);
  const s::QuantizedIirCascade q(iir, input);
  const auto ref = iir.filter(input);
  const auto approx = q.filter(input, {40, 40, 40, 40, 40});
  EXPECT_LT(ace::metrics::noise_power(approx, ref), 1e-14);
}

class IirMonotoneTest : public ::testing::TestWithParam<int> {};

TEST_P(IirMonotoneTest, NoiseShrinksWithWiderWords) {
  const int w = GetParam();
  const s::IirCascade iir(s::design_butterworth_lowpass(8, 0.12));
  ace::util::Rng rng(7);
  const auto input = s::noisy_multitone(rng, 384);
  const s::QuantizedIirCascade q(iir, input);
  const auto ref = iir.filter(input);
  const std::vector<int> narrow(5, w);
  const std::vector<int> wide(5, w + 4);
  EXPECT_LT(ace::metrics::noise_power(q.filter(input, wide), ref),
            ace::metrics::noise_power(q.filter(input, narrow), ref));
}

INSTANTIATE_TEST_SUITE_P(Widths, IirMonotoneTest,
                         ::testing::Values(8, 10, 12, 14));

TEST(QuantizedIir, NarrowingAnySingleWordRaisesTheNoise) {
  // Every variable is a noise source of its own: the four accumulators and
  // the shared inter-stage data word.
  const s::IirCascade iir(s::design_butterworth_lowpass(8, 0.12));
  ace::util::Rng rng(15);
  const auto input = s::noisy_multitone(rng, 1024);
  const s::QuantizedIirCascade q(iir, input);
  const auto ref = iir.filter(input);
  const std::vector<int> base(5, 16);
  const double p_base = ace::metrics::noise_power(q.filter(input, base), ref);
  for (std::size_t i = 0; i < base.size(); ++i) {
    auto narrow = base;
    narrow[i] = 8;
    EXPECT_GT(ace::metrics::noise_power(q.filter(input, narrow), ref), p_base)
        << "variable " << i;
  }
}

TEST(QuantizedIir, NoiseFallsAboutSixDbPerBit) {
  // Rounding noise power scales with q² = 2^(−2f): four more bits on every
  // word should buy about four equivalent bits, 0.5·log2 of the power ratio.
  const s::IirCascade iir(s::design_butterworth_lowpass(8, 0.12));
  ace::util::Rng rng(16);
  const auto input = s::noisy_multitone(rng, 2048);
  const s::QuantizedIirCascade q(iir, input);
  const auto ref = iir.filter(input);
  for (const int w : {10, 12}) {
    const double narrow = ace::metrics::noise_power(
        q.filter(input, std::vector<int>(5, w)), ref);
    const double wide = ace::metrics::noise_power(
        q.filter(input, std::vector<int>(5, w + 4)), ref);
    const double bits = 0.5 * std::log2(narrow / wide);
    EXPECT_GT(bits, 3.0) << "w " << w;
    EXPECT_LT(bits, 5.0) << "w " << w;
  }
}

TEST(QuantizedIir, ExtraMarginBitsCostFractionalPrecision) {
  // At a fixed word length, each extra integer bit of margin is one
  // fractional bit fewer: two more bits cost about a factor 16 in power.
  const s::IirCascade iir(s::design_butterworth_lowpass(8, 0.12));
  ace::util::Rng rng(17);
  const auto input = s::noisy_multitone(rng, 2048);
  const s::QuantizedIirCascade tight(iir, input, 1);
  const s::QuantizedIirCascade loose(iir, input, 3);
  const auto ref = iir.filter(input);
  const std::vector<int> w(5, 12);
  const double p_tight = ace::metrics::noise_power(tight.filter(input, w), ref);
  const double p_loose = ace::metrics::noise_power(loose.filter(input, w), ref);
  const double bits = 0.5 * std::log2(p_loose / p_tight);
  EXPECT_GT(bits, 1.0);
  EXPECT_LT(bits, 3.0);
}

TEST(QuantizedIir, Deterministic) {
  const s::IirCascade iir(s::design_butterworth_lowpass(4, 0.2));
  ace::util::Rng rng(8);
  const auto input = s::noisy_multitone(rng, 128);
  const s::QuantizedIirCascade q(iir, input);
  const std::vector<int> w = {10, 11, 12};
  EXPECT_EQ(q.filter(input, w), q.filter(input, w));
}

}  // namespace
