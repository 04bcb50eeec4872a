#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <stdexcept>
#include <vector>

#include "fixedpoint/format.hpp"
#include "fixedpoint/quantizer.hpp"
#include "fixedpoint/range_tracker.hpp"
#include "util/rng.hpp"

namespace {

using ace::fixedpoint::Format;
using ace::fixedpoint::OverflowMode;
using ace::fixedpoint::Quantizer;
using ace::fixedpoint::RangeTracker;
using ace::fixedpoint::RoundingMode;
using ace::fixedpoint::round_half_even;

/// Bitwise equality; any NaN matches any NaN (payloads are not compared).
::testing::AssertionResult same_bits(double expected, double actual) {
  if (std::isnan(expected) && std::isnan(actual))
    return ::testing::AssertionSuccess();
  if (std::bit_cast<std::uint64_t>(expected) ==
      std::bit_cast<std::uint64_t>(actual))
    return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure()
         << std::hexfloat << "expected " << expected << ", got " << actual;
}

TEST(RoundHalfEven, MatchesNearbyintOnEdgeCases) {
  constexpr double kTwo52 = 4503599627370496.0;
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const double cases[] = {
      0.0, -0.0, 0.5, -0.5, 1.5, -1.5, 2.5, -2.5, -0.3, 0.3, 0.49999999999999994,
      -0.49999999999999994, 3.5, 1e15 + 0.5, kTwo52 - 0.5, -(kTwo52 - 0.5),
      kTwo52 - 1.5, kTwo52, -kTwo52, kTwo52 + 1.0, 2 * kTwo52 + 2.0,
      -(2 * kTwo52 + 2.0), 1e300, -1e300,
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(),
      std::numeric_limits<double>::min() / 3.0,
      std::numeric_limits<double>::max(), -std::numeric_limits<double>::max(),
      kInf, -kInf, std::numeric_limits<double>::quiet_NaN(),
      -std::numeric_limits<double>::quiet_NaN()};
  for (double x : cases)
    EXPECT_TRUE(same_bits(std::nearbyint(x), round_half_even(x)))
        << std::hexfloat << "x = " << x;
  // The sign of a zero result follows the input.
  EXPECT_TRUE(std::signbit(round_half_even(-0.3)));
  EXPECT_TRUE(std::signbit(round_half_even(-0.0)));
  EXPECT_FALSE(std::signbit(round_half_even(0.3)));
}

TEST(RoundHalfEven, MatchesNearbyintOnRandomDoubles) {
  // 10^6 seeded doubles: most with an exponent in [-64, 64] (where the
  // fraction bits matter), one in eight a raw 64-bit pattern (subnormals,
  // huge values, ±inf and NaN).
  std::mt19937_64 engine(20200309);
  std::uniform_int_distribution<int> exponent(-64, 64);
  for (int i = 0; i < 1000000; ++i) {
    const std::uint64_t bits = engine();
    double x;
    if (i % 8 == 0) {
      x = std::bit_cast<double>(bits);
    } else {
      const double mantissa =
          1.0 + static_cast<double>(bits >> 12) * 0x1p-52;
      x = std::ldexp((bits & 1) != 0 ? -mantissa : mantissa,
                     exponent(engine));
    }
    const auto same = same_bits(std::nearbyint(x), round_half_even(x));
    if (!same) {
      ADD_FAILURE() << std::hexfloat << "x = " << x << ": " << same.message();
      return;
    }
  }
}

/// The out-of-line quantize() every kernel called before it moved into the
/// header, kept verbatim (libm nearbyint) as the equivalence oracle.
double reference_quantize(const Format& format, RoundingMode rounding,
                          OverflowMode overflow, double x) {
  const double step = format.step();
  const double min = format.min_value();
  const double max = format.max_value();
  const double span = max - min + step;
  const double scaled = x * (1.0 / step);
  double grid;
  switch (rounding) {
    case RoundingMode::kTruncate:
      grid = std::floor(scaled);
      break;
    case RoundingMode::kRoundNearest:
      grid = std::floor(scaled + 0.5);
      break;
    case RoundingMode::kRoundConvergent:
    default:
      grid = std::nearbyint(scaled);
      break;
  }
  const double value = grid * step;
  if (value >= min && value <= max) return value;
  if (overflow == OverflowMode::kSaturate) return value < min ? min : max;
  const double offset = value - min;
  const double wrapped = offset - span * std::floor(offset / span);
  return min + wrapped;
}

TEST(Quantizer, MatchesReferenceFormulaForEveryMode) {
  std::mt19937_64 engine(52);
  const std::vector<Format> formats = {Format(2, 0),  Format(2, 1),
                                       Format(6, 2),  Format(12, 3),
                                       Format(16, 0), Format(24, 8),
                                       Format(52, 0), Format(52, 20)};
  for (const auto rounding :
       {RoundingMode::kTruncate, RoundingMode::kRoundNearest,
        RoundingMode::kRoundConvergent}) {
    for (const auto overflow : {OverflowMode::kSaturate, OverflowMode::kWrap}) {
      for (const auto& f : formats) {
        const Quantizer q{f, rounding, overflow};
        const double range = -f.min_value();
        std::vector<double> xs = {0.0, -0.0, f.max_value(), f.min_value(),
                                  std::numeric_limits<double>::infinity(),
                                  -std::numeric_limits<double>::infinity(),
                                  std::numeric_limits<double>::quiet_NaN()};
        // Exact ties between grid points, inside and beyond the range.
        for (int k = -40; k <= 40; ++k) {
          const double tie = (k + 0.5) * f.step();
          xs.insert(xs.end(), {tie, tie + 2.0 * range, tie - 2.0 * range});
        }
        // Random values over three times the range: in-range, saturating
        // and wrapping alike.
        std::uniform_real_distribution<double> u(-3.0 * range, 3.0 * range);
        for (int i = 0; i < 2000; ++i) xs.push_back(u(engine));
        for (double x : xs)
          ASSERT_TRUE(
              same_bits(reference_quantize(f, rounding, overflow, x), q(x)))
              << f.to_string() << " rounding " << static_cast<int>(rounding)
              << " overflow " << static_cast<int>(overflow) << std::hexfloat
              << " x = " << x;
      }
    }
  }
}

TEST(Format, ConstructionValidation) {
  EXPECT_THROW(Format(1, 0), std::invalid_argument);
  EXPECT_THROW(Format(53, 0), std::invalid_argument);
  EXPECT_THROW(Format(8, -1), std::invalid_argument);
  EXPECT_THROW(Format(8, 8), std::invalid_argument);
  EXPECT_NO_THROW(Format(8, 7));
  EXPECT_NO_THROW(Format(2, 0));
}

TEST(Format, DerivedQuantities) {
  const Format f(8, 3);  // 1 sign, 3 integer, 4 fractional.
  EXPECT_EQ(f.fractional_bits(), 4);
  EXPECT_DOUBLE_EQ(f.step(), 1.0 / 16.0);
  EXPECT_DOUBLE_EQ(f.min_value(), -8.0);
  EXPECT_DOUBLE_EQ(f.max_value(), 8.0 - 1.0 / 16.0);
  EXPECT_EQ(f.to_string(), "<8,3>");
}

TEST(Format, ClampedIntegerBitsKeepsConstructible) {
  // A word too narrow for the requested range keeps sign + max integer
  // bits: <2, iwl>=... clamps to iwl = 1.
  const Format f = Format::with_clamped_integer_bits(2, 3);
  EXPECT_EQ(f.word_length(), 2);
  EXPECT_EQ(f.integer_bits(), 1);
  EXPECT_EQ(f.fractional_bits(), 0);
  // Wide enough words pass through unchanged.
  const Format g = Format::with_clamped_integer_bits(8, 3);
  EXPECT_EQ(g.integer_bits(), 3);
  // Negative requests clamp to zero.
  const Format h = Format::with_clamped_integer_bits(8, -2);
  EXPECT_EQ(h.integer_bits(), 0);
}

TEST(Format, GridHoldsTwoToTheWordLengthValues) {
  // [min, max] in steps of q is every two's-complement code of w bits.
  for (int w = 2; w <= 24; ++w)
    for (const int iwl : {0, 1, w / 2, w - 1}) {
      const Format f(w, iwl);
      EXPECT_EQ((f.max_value() - f.min_value()) / f.step() + 1.0,
                std::ldexp(1.0, w))
          << f.to_string();
    }
}

TEST(Format, ClampedIntegerBitsIsIdentityWhenTheyFit) {
  for (int w = 2; w <= 52; ++w)
    for (int iwl = 0; iwl < w; ++iwl)
      EXPECT_EQ(Format::with_clamped_integer_bits(w, iwl), Format(w, iwl))
          << "w " << w << " iwl " << iwl;
}

TEST(Quantizer, ClampedFormatSaturatesOutOfRangeValues) {
  const Quantizer q{Format::with_clamped_integer_bits(3, 5)};  // <3,2>.
  EXPECT_DOUBLE_EQ(q(100.0), Format(3, 2).max_value());
  EXPECT_DOUBLE_EQ(q(-100.0), -4.0);
}

TEST(Quantizer, RoundNearestGridValues) {
  const Quantizer q{Format(8, 3)};  // step 1/16.
  EXPECT_DOUBLE_EQ(q(0.0), 0.0);
  EXPECT_DOUBLE_EQ(q(1.0 / 16.0), 1.0 / 16.0);
  // 0.03 and −0.03 are both nearer to 0 than to ±1/16 (half step = 1/32).
  EXPECT_DOUBLE_EQ(q(0.03), 0.0);
  EXPECT_DOUBLE_EQ(q(-0.03), 0.0);
  // 0.04 crosses the 1/32 midpoint: rounds up to 1/16.
  EXPECT_DOUBLE_EQ(q(0.04), 1.0 / 16.0);
  EXPECT_DOUBLE_EQ(q(-0.04), -1.0 / 16.0);
}

TEST(Quantizer, TruncationFloorsTowardMinusInfinity) {
  const Quantizer q{Format(8, 3), RoundingMode::kTruncate};
  EXPECT_DOUBLE_EQ(q(0.99 / 16.0), 0.0);
  EXPECT_DOUBLE_EQ(q(-0.01), -1.0 / 16.0);
  EXPECT_DOUBLE_EQ(q(3.0 / 16.0), 3.0 / 16.0);
}

TEST(Quantizer, SaturationClampsAtRangeEdges) {
  const Quantizer q{Format(6, 2)};  // Range [-4, 4 - 1/8].
  EXPECT_DOUBLE_EQ(q(100.0), 4.0 - 1.0 / 8.0);
  EXPECT_DOUBLE_EQ(q(-100.0), -4.0);
}

TEST(Quantizer, WrapIsPeriodic) {
  const Quantizer q{Format(6, 2), RoundingMode::kRoundNearest,
                    OverflowMode::kWrap};
  // Span is 8; value 4 wraps to -4.
  EXPECT_DOUBLE_EQ(q(4.0), -4.0);
  EXPECT_DOUBLE_EQ(q(4.0 + 8.0), -4.0);
  EXPECT_DOUBLE_EQ(q(-4.0 - 8.0), -4.0);
  // In-range values unaffected.
  EXPECT_DOUBLE_EQ(q(1.5), 1.5);
}

TEST(Quantizer, ErrorBoundedByStep) {
  ace::util::Rng rng(5);
  const Format f(10, 1);
  const Quantizer qr{f};
  const Quantizer qt{f, RoundingMode::kTruncate};
  for (int i = 0; i < 2000; ++i) {
    const double x = rng.uniform(-1.9, 1.9);
    EXPECT_LE(std::abs(qr(x) - x), f.step() / 2.0 + 1e-15);
    const double terr = x - qt(x);
    EXPECT_GE(terr, -1e-15);
    EXPECT_LT(terr, f.step() + 1e-15);
  }
}

TEST(Quantizer, FineGridErrorPowerMatchesTextbookFormulas) {
  // On a grid much finer than the signal, rounding error is uniform on
  // (−q/2, q/2] with power q²/12, and truncation error on [0, q) with
  // power q²/4 + q²/12 = q²/3.
  const Format f(12, 1);
  const double q = f.step();
  const Quantizer round{f};
  const Quantizer truncate{f, RoundingMode::kTruncate};
  ace::util::Rng rng(24);
  double p_round = 0.0, p_truncate = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.uniform(-1.9, 1.9);
    p_round += (round(x) - x) * (round(x) - x);
    p_truncate += (truncate(x) - x) * (truncate(x) - x);
  }
  EXPECT_NEAR(p_round / n, q * q / 12.0, 0.05 * q * q / 12.0);
  EXPECT_NEAR(p_truncate / n, q * q / 3.0, 0.05 * q * q / 3.0);
}

/// Property: quantization is idempotent across formats and modes.
class QuantizerIdempotenceTest
    : public ::testing::TestWithParam<std::tuple<int, int, RoundingMode>> {};

TEST_P(QuantizerIdempotenceTest, QuantizeTwiceEqualsOnce) {
  const auto [w, iwl, mode] = GetParam();
  if (iwl > w - 1) GTEST_SKIP();
  const Quantizer q{Format(w, iwl), mode};
  ace::util::Rng rng(static_cast<std::uint64_t>(w * 100 + iwl));
  for (int i = 0; i < 200; ++i) {
    const double x = rng.uniform(-4.0, 4.0);
    const double once = q(x);
    EXPECT_DOUBLE_EQ(q(once), once);
  }
}

INSTANTIATE_TEST_SUITE_P(
    FormatsAndModes, QuantizerIdempotenceTest,
    ::testing::Combine(::testing::Values(2, 4, 8, 12, 16, 24),
                       ::testing::Values(0, 1, 3),
                       ::testing::Values(RoundingMode::kRoundNearest,
                                         RoundingMode::kTruncate)));

/// Property: widening the word length never increases quantization error.
class QuantizerMonotoneTest : public ::testing::TestWithParam<int> {};

TEST_P(QuantizerMonotoneTest, WiderWordSmallerError) {
  const int w = GetParam();
  ace::util::Rng rng(77);
  const Quantizer narrow{Format(w, 2)};
  const Quantizer wide{Format(w + 2, 2)};
  double err_narrow = 0.0, err_wide = 0.0;
  for (int i = 0; i < 500; ++i) {
    const double x = rng.uniform(-3.9, 3.9);
    err_narrow += std::abs(narrow(x) - x);
    err_wide += std::abs(wide(x) - x);
  }
  EXPECT_LE(err_wide, err_narrow);
}

INSTANTIATE_TEST_SUITE_P(Widths, QuantizerMonotoneTest,
                         ::testing::Values(4, 6, 8, 10, 12, 14));

TEST(RangeTracker, TracksMaximaAndDerivesIntegerBits) {
  RangeTracker t(3);
  EXPECT_THROW(RangeTracker(0), std::invalid_argument);
  t.observe(0, 0.4);
  t.observe(0, -0.7);
  t.observe(1, 3.9);
  EXPECT_DOUBLE_EQ(t.max_abs(0), 0.7);
  EXPECT_DOUBLE_EQ(t.max_abs(1), 3.9);
  EXPECT_DOUBLE_EQ(t.max_abs(2), 0.0);
  EXPECT_EQ(t.integer_bits(0), 0);   // |0.7| < 1.
  EXPECT_EQ(t.integer_bits(1), 2);   // |3.9| < 4.
  EXPECT_EQ(t.integer_bits(2), 0);   // Unobserved.
  EXPECT_EQ(t.integer_bits(1, 1), 3);
  const auto all = t.all_integer_bits();
  EXPECT_EQ(all.size(), 3u);
  EXPECT_EQ(all[1], 2);
}

TEST(RangeTracker, ObserveReturnsValueUnchanged) {
  RangeTracker t(1);
  EXPECT_DOUBLE_EQ(t.observe(0, -2.25), -2.25);
  EXPECT_THROW(t.observe(1, 0.0), std::out_of_range);
}

// The largest double below 2^k fits under 2^k, so it needs exactly k
// integer bits — no extra bit for being within an epsilon of the power.
TEST(RangeTracker, JustBelowAPowerOfTwoNeedsNoExtraBit) {
  for (int k = 0; k <= 29; ++k) {
    RangeTracker t(1);
    t.observe(0, -std::nextafter(std::ldexp(1.0, k), 0.0));
    EXPECT_EQ(t.integer_bits(0), k) << "2^" << k << " - ulp";
  }
}

// integer_bits_for(m) is the smallest b with m < 2^b: m fits under 2^b and
// not under 2^(b−1), across magnitudes far below and far above 1.
TEST(IntegerBitsFor, IsTheSmallestExponentTheMagnitudeFitsUnder) {
  using ace::fixedpoint::integer_bits_for;
  ace::util::Rng rng(91);
  for (int i = 0; i < 2000; ++i) {
    const double m = std::ldexp(rng.uniform(0.5, 1.0), rng.uniform_int(-60, 60));
    const int b = integer_bits_for(m);
    EXPECT_LT(m, std::ldexp(1.0, b)) << m;
    EXPECT_GE(m, std::ldexp(1.0, b - 1)) << m;
  }
  EXPECT_EQ(integer_bits_for(1.0), 1);
  EXPECT_EQ(integer_bits_for(0.75), 0);
  EXPECT_EQ(integer_bits_for(0.5), 0);
  EXPECT_EQ(integer_bits_for(0.3), -1);
  EXPECT_EQ(integer_bits_for(3.9), 2);
  EXPECT_EQ(integer_bits_for(4096.0), 13);
}

TEST(IntegerBitsFor, NonPositiveNanSubnormalAndInfinity) {
  using ace::fixedpoint::integer_bits_for;
  EXPECT_EQ(integer_bits_for(0.0), 0);
  EXPECT_EQ(integer_bits_for(-0.0), 0);
  EXPECT_EQ(integer_bits_for(-8.0), 0);
  EXPECT_EQ(integer_bits_for(std::numeric_limits<double>::quiet_NaN()), 0);
  // The smallest subnormal is 2^-1074, which fits under 2^-1073.
  EXPECT_EQ(integer_bits_for(std::numeric_limits<double>::denorm_min()),
            -1073);
  EXPECT_EQ(integer_bits_for(std::numeric_limits<double>::max()), 1024);
  EXPECT_EQ(integer_bits_for(std::numeric_limits<double>::infinity()), 1024);
}

// An observed maximum of exactly 2^k does not fit k integer bits (the
// format's largest value is 2^k − q), so it needs k + 1 — at every k, not
// only where an additive epsilon in ceil(log2(m + ε)) still registers.
TEST(RangeTracker, ExactPowersOfTwoNeedTheNextBit) {
  for (int k = 0; k <= 29; ++k) {
    RangeTracker t(1);
    t.observe(0, std::ldexp(1.0, k));
    EXPECT_EQ(t.integer_bits(0), k + 1) << "2^" << k;
  }
}

TEST(RangeTracker, MarginAddsBitsAndTheResultClampsToZeroAndFortyEight) {
  RangeTracker t(2);
  t.observe(0, 3.0);    // 2 integer bits.
  t.observe(1, 1e20);   // Far beyond any format.
  EXPECT_EQ(t.integer_bits(0), 2);
  EXPECT_EQ(t.integer_bits(0, 2), 4);
  EXPECT_EQ(t.integer_bits(0, -5), 0);
  EXPECT_EQ(t.integer_bits(1), 48);
  EXPECT_EQ(t.all_integer_bits(1), (std::vector<int>{3, 48}));
}

TEST(RangeTracker, IntegerBitsFitTheObservedMaximumAndNoFewerDo) {
  // The derived integer bits are the fewest that keep max |x| inside a
  // format's range: max_value() >= max |x| at iwl, not at iwl − 1.
  ace::util::Rng rng(25);
  for (int i = 0; i < 200; ++i) {
    RangeTracker t(1);
    const double m = std::ldexp(rng.uniform(0.5, 1.0), rng.uniform_int(-3, 20));
    t.observe(0, i % 2 == 0 ? m : -m);
    const int iwl = t.integer_bits(0);
    EXPECT_GE(Format(52, iwl).max_value(), m) << "max " << m;
    if (iwl > 0)
      EXPECT_LT(Format(52, iwl - 1).max_value(), m) << "max " << m;
  }
}

}  // namespace
