#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>

#include "approx/adders.hpp"
#include "approx/multipliers.hpp"
#include "util/rng.hpp"

namespace {

namespace ax = ace::approx;

TEST(ExactAdd, WrapsTwoComplement) {
  EXPECT_EQ(ax::exact_add(3, 4, 8), 7);
  EXPECT_EQ(ax::exact_add(127, 1, 8), -128);  // Overflow wraps.
  EXPECT_EQ(ax::exact_add(-128, -1, 8), 127);
  EXPECT_EQ(ax::exact_add(-5, 2, 8), -3);
  EXPECT_THROW((void)ax::exact_add(0, 0, 1), std::invalid_argument);
  EXPECT_THROW((void)ax::exact_add(0, 0, 63), std::invalid_argument);
}

// Exhaustive over every signed 6-bit operand pair: the golden adder lands
// in the signed range and agrees with the true sum modulo 2^width.
TEST(ExactAdd, MatchesModularSumExhaustively) {
  const int width = 6;
  for (std::int64_t a = -32; a <= 31; ++a)
    for (std::int64_t b = -32; b <= 31; ++b) {
      const std::int64_t sum = ax::exact_add(a, b, width);
      EXPECT_GE(sum, -32);
      EXPECT_LE(sum, 31);
      EXPECT_EQ((sum - (a + b)) % 64, 0) << a << " + " << b;
    }
}

TEST(Adders, ConstructionValidation) {
  EXPECT_THROW(ax::LowerOrAdder(1, 0), std::invalid_argument);
  EXPECT_THROW(ax::LowerOrAdder(8, -1), std::invalid_argument);
  EXPECT_THROW(ax::LowerOrAdder(8, 9), std::invalid_argument);
}

TEST(Adders, DegreeZeroIsExact) {
  ace::util::Rng rng(80);
  const ax::LowerOrAdder loa(12, 0);
  for (int i = 0; i < 500; ++i) {
    const std::int64_t a = rng.uniform_int(-2048, 2047);
    const std::int64_t b = rng.uniform_int(-2048, 2047);
    const std::int64_t exact = ax::exact_add(a, b, 12);
    EXPECT_EQ(loa.add(a, b), exact);
  }
}

TEST(LowerOrAdder, KnownSmallCases) {
  // width 4, degree 2: low 2 bits OR-ed, carry = AND of bit 1.
  const ax::LowerOrAdder loa(4, 2);
  // a = 0b0001, b = 0b0010 -> low OR = 0b11, no carry, high 0 -> 3 (exact).
  EXPECT_EQ(loa.add(1, 2), 3);
  // a = 0b0011, b = 0b0011: low OR = 0b11 (exact sum low = 0b10 carry 1);
  // carry predicted from bit1&bit1 = 1: high = (0+0+1)<<2 = 4; result 7.
  EXPECT_EQ(loa.add(3, 3), 7);  // Exact is 6: LOA error = +1.
  // a = 0b0101, b = 0b0001: low OR = 0b01, no carry; high = 1<<2; result 5.
  EXPECT_EQ(loa.add(5, 1), 5);  // Exact is 6: LOA error = -1.
}

// Exhaustive over every signed 8-bit operand pair: the LOA's error is
// exactly zero at degree 0, and its squared error never falls as the
// degree rises (every degree sums over the same pairs, so comparing sums
// compares means).
TEST(LowerOrAdder, ErrorGrowsWithDegree) {
  const int width = 8;
  std::int64_t previous_sum_sq = -1;
  for (int degree : {0, 2, 4, 6}) {
    const ax::LowerOrAdder adder(width, degree);
    std::int64_t errors = 0;
    std::int64_t sum_sq = 0;
    for (std::int64_t a = -128; a <= 127; ++a)
      for (std::int64_t b = -128; b <= 127; ++b) {
        const std::int64_t diff = adder.add(a, b) - ax::exact_add(a, b, width);
        if (diff != 0) ++errors;
        sum_sq += diff * diff;
      }
    if (degree == 0) {
      EXPECT_EQ(errors, 0);
      EXPECT_EQ(sum_sq, 0);
    }
    EXPECT_GE(sum_sq, previous_sum_sq) << "degree " << degree;
    previous_sum_sq = sum_sq;
  }
}

TEST(LowerOrAdder, IsCommutative) {
  const int width = 8;
  for (int degree = 0; degree <= width; ++degree) {
    const ax::LowerOrAdder adder(width, degree);
    for (std::int64_t a = -128; a <= 127; ++a)
      for (std::int64_t b = a; b <= 127; ++b)
        ASSERT_EQ(adder.add(a, b), adder.add(b, a))
            << a << ", " << b << " at degree " << degree;
  }
}

// The LOA error in closed form. With a_l, b_l the low `degree` bits and c
// the predicted carry (the AND of their top bits), the exact sum carries
// a_l + b_l = (a_l | b_l) + (a_l & b_l) while the LOA keeps a_l | b_l and
// adds c·2^degree, so LOA − exact = c·2^degree − (a_l & b_l) modulo
// 2^width. Checked exhaustively at 8 bits for every degree.
TEST(LowerOrAdder, ErrorMatchesClosedForm) {
  const int width = 8;
  for (int degree = 0; degree <= width; ++degree) {
    const ax::LowerOrAdder adder(width, degree);
    const std::uint64_t low_mask = (std::uint64_t{1} << degree) - 1;
    for (std::int64_t a = -128; a <= 127; ++a)
      for (std::int64_t b = -128; b <= 127; ++b) {
        const std::uint64_t both_low =
            static_cast<std::uint64_t>(a) & static_cast<std::uint64_t>(b) &
            low_mask;
        const std::int64_t carry =
            degree > 0 && ((both_low >> (degree - 1)) & 1) ? 1 : 0;
        const std::int64_t error = (carry << degree) -
                                   static_cast<std::int64_t>(both_low);
        ASSERT_EQ(adder.add(a, b),
                  ax::exact_add(ax::exact_add(a, b, width), error, width))
            << a << " + " << b << " at degree " << degree;
      }
  }
}

// Below the full width the error stays within one half of the approximate
// part's range: −(2^(d−1) − 1) <= LOA − exact <= 2^(d−1).
TEST(LowerOrAdder, ErrorBoundedByHalfTheApproximatePart) {
  const int width = 8;
  for (int degree = 1; degree < width; ++degree) {
    const ax::LowerOrAdder adder(width, degree);
    const std::int64_t half = std::int64_t{1} << (degree - 1);
    for (std::int64_t a = -128; a <= 127; ++a)
      for (std::int64_t b = -128; b <= 127; ++b) {
        const std::int64_t diff =
            ax::exact_add(adder.add(a, b), -ax::exact_add(a, b, width), width);
        ASSERT_LE(diff, half) << a << " + " << b << " at degree " << degree;
        ASSERT_GE(diff, -(half - 1))
            << a << " + " << b << " at degree " << degree;
      }
  }
}

TEST(TruncatedMultiplier, DegreeZeroExactAndValidation) {
  EXPECT_THROW(ax::TruncatedMultiplier(1, 0), std::invalid_argument);
  EXPECT_THROW(ax::TruncatedMultiplier(8, 17), std::invalid_argument);
  const ax::TruncatedMultiplier exact_mul(8, 0);
  ace::util::Rng rng(81);
  for (int i = 0; i < 500; ++i) {
    const std::int64_t a = rng.uniform_int(-128, 127);
    const std::int64_t b = rng.uniform_int(-128, 127);
    EXPECT_EQ(exact_mul.multiply(a, b), a * b);
  }
}

TEST(TruncatedMultiplier, DropsLowColumns) {
  const ax::TruncatedMultiplier mul(8, 4);
  // 5·7 = 35 = 0b100011 -> low 4 bits dropped -> 32; sign preserved.
  EXPECT_EQ(mul.multiply(5, 7), 32);
  EXPECT_EQ(mul.multiply(-5, 7), -32);
  EXPECT_EQ(mul.multiply(5, -7), -32);
  EXPECT_EQ(mul.multiply(-5, -7), 32);
  EXPECT_EQ(mul.multiply(0, 123), 0);
}

// Exhaustive over every signed 6-bit operand pair: the squared error never
// falls as more product columns are dropped.
TEST(TruncatedMultiplier, ErrorGrowsWithDegree) {
  const int width = 6;
  std::int64_t previous_sum_sq = -1;
  for (int degree = 0; degree <= 2 * width; ++degree) {
    const ax::TruncatedMultiplier mul(width, degree);
    std::int64_t sum_sq = 0;
    for (std::int64_t a = -32; a <= 31; ++a)
      for (std::int64_t b = -32; b <= 31; ++b) {
        const std::int64_t diff = mul.multiply(a, b) - a * b;
        sum_sq += diff * diff;
      }
    if (degree == 0) EXPECT_EQ(sum_sq, 0);
    EXPECT_GE(sum_sq, previous_sum_sq) << "degree " << degree;
    previous_sum_sq = sum_sq;
  }
}

// Sign × magnitude: the product's magnitude is truncated to a multiple of
// 2^degree, never rounded up, and loses less than 2^degree.
TEST(TruncatedMultiplier, MagnitudeTruncatedBelowTwoToTheDegree) {
  const int width = 6;
  for (int degree = 0; degree <= 2 * width; ++degree) {
    const ax::TruncatedMultiplier mul(width, degree);
    const std::int64_t step = std::int64_t{1} << degree;
    for (std::int64_t a = -32; a <= 31; ++a)
      for (std::int64_t b = -32; b <= 31; ++b) {
        const std::int64_t exact = a * b < 0 ? -(a * b) : a * b;
        const std::int64_t approx = mul.multiply(a, b);
        const std::int64_t magnitude = approx < 0 ? -approx : approx;
        ASSERT_EQ(magnitude % step, 0) << a << " * " << b;
        ASSERT_LE(magnitude, exact) << a << " * " << b;
        ASSERT_LT(exact - magnitude, step) << a << " * " << b;
      }
  }
}

TEST(TruncatedMultiplier, CommutativeAndSignSymmetric) {
  const int width = 6;
  for (int degree = 0; degree <= 2 * width; ++degree) {
    const ax::TruncatedMultiplier mul(width, degree);
    for (std::int64_t a = -31; a <= 31; ++a)
      for (std::int64_t b = -31; b <= 31; ++b) {
        const std::int64_t p = mul.multiply(a, b);
        ASSERT_EQ(mul.multiply(b, a), p) << a << " * " << b;
        ASSERT_EQ(mul.multiply(-a, b), -p) << a << " * " << b;
        ASSERT_EQ(mul.multiply(-a, -b), p) << a << " * " << b;
      }
  }
}

}  // namespace
