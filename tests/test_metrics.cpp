#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "metrics/classification.hpp"
#include "metrics/error_metrics.hpp"
#include "metrics/noise_power.hpp"

namespace {

namespace m = ace::metrics;

TEST(NoisePower, MatchesHandComputedMse) {
  const std::vector<double> approx = {1.0, 2.0, 3.0};
  const std::vector<double> ref = {1.0, 2.5, 2.0};
  EXPECT_DOUBLE_EQ(m::noise_power(approx, ref), (0.0 + 0.25 + 1.0) / 3.0);
}

TEST(NoisePower, ZeroForIdenticalSequences) {
  const std::vector<double> x = {0.1, -0.4, 2.0};
  EXPECT_DOUBLE_EQ(m::noise_power(x, x), 0.0);
}

TEST(NoisePower, Validation) {
  EXPECT_THROW((void)m::noise_power({1.0}, {1.0, 2.0}), std::invalid_argument);
  EXPECT_THROW((void)m::noise_power({}, {}), std::invalid_argument);
}

TEST(NoisePowerComplex, CombinesBothComponents) {
  const std::vector<double> are = {1.0}, aim = {2.0};
  const std::vector<double> rre = {0.0}, rim = {0.0};
  EXPECT_DOUBLE_EQ(m::noise_power_complex(are, aim, rre, rim), 5.0);
  EXPECT_THROW(
      (void)m::noise_power_complex({1.0}, {1.0, 2.0}, {0.0}, {0.0}),
      std::invalid_argument);
}

TEST(DbConversion, ClampsAtFloor) {
  EXPECT_NEAR(m::to_db(1.0), 0.0, 1e-12);
  EXPECT_NEAR(m::to_db(0.001), -30.0, 1e-9);
  EXPECT_DOUBLE_EQ(m::to_db(0.0), -400.0);
  EXPECT_DOUBLE_EQ(m::to_db(-1.0), -400.0);
  EXPECT_DOUBLE_EQ(m::to_db(1e-80), -400.0);  // Below floor clamps.
}

TEST(DbConversion, TenDbPerDecadeAndThreePerDoubling) {
  for (int k = -30; k <= 30; k += 5)
    EXPECT_NEAR(m::to_db(std::pow(10.0, k)), 10.0 * k, 1e-9) << "10^" << k;
  EXPECT_NEAR(m::to_db(2e-6) - m::to_db(1e-6), 10.0 * std::log10(2.0), 1e-9);
}

TEST(EpsilonRelative, MatchesEquation12) {
  EXPECT_NEAR(m::epsilon_relative(0.9, 1.0), 0.1, 1e-12);
  EXPECT_NEAR(m::epsilon_relative(1.1, 1.0), 0.1, 1e-12);
  EXPECT_NEAR(m::epsilon_relative(-0.5, -1.0), 0.5, 1e-12);
  EXPECT_THROW((void)m::epsilon_relative(1.0, 0.0), std::invalid_argument);
}

TEST(Classification, AgreementFraction) {
  EXPECT_DOUBLE_EQ(
      m::classification_agreement({1, 2, 3, 4}, {1, 2, 0, 4}), 0.75);
  EXPECT_DOUBLE_EQ(m::classification_agreement({5}, {5}), 1.0);
  EXPECT_THROW((void)m::classification_agreement({}, {}),
               std::invalid_argument);
  EXPECT_THROW((void)m::classification_agreement({1}, {1, 2}),
               std::invalid_argument);
}

TEST(Argmax, FirstIndexWinsTies) {
  EXPECT_EQ(m::argmax({0.1, 0.9, 0.9}), 1u);
  EXPECT_EQ(m::argmax({-1.0}), 0u);
  EXPECT_THROW((void)m::argmax({}), std::invalid_argument);
}

}  // namespace
