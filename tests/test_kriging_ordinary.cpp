// Ordinary kriging (paper Eq. 3 and 7-10) through a one-shot
// KrigingSystem: closed-form cases, unbiasedness, exactness at the
// support, the ridge fallback and input validation.
#include "kriging/system.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <optional>
#include <stdexcept>
#include <vector>

#include "kriging/variogram_model.hpp"

namespace {

namespace k = ace::kriging;

/// A fresh one-shot system queried once.
std::optional<k::KrigingResult> one_shot(
    const std::vector<std::vector<double>>& points,
    const std::vector<double>& values, const std::vector<double>& query,
    const k::VariogramModel& model) {
  k::KrigingSystem system(k::SystemSpec{k::SystemKind::kOrdinary}, points,
                          values, model);
  return system.query(query);
}

TEST(Krige, Validation) {
  const k::LinearVariogram model(0.0, 1.0);
  EXPECT_THROW((void)one_shot({}, {}, {0.0}, model), std::invalid_argument);
  EXPECT_THROW((void)one_shot({{0.0}}, {1.0, 2.0}, {0.0}, model),
               std::invalid_argument);
  EXPECT_THROW((void)one_shot({{0.0, 0.0}}, {1.0}, {0.0}, model),
               std::invalid_argument);
}

TEST(Krige, SingleSupportPointReturnsItsValue) {
  const k::LinearVariogram model(0.0, 1.0);
  const auto r = one_shot({{0.0}}, {7.5}, {3.0}, model);
  ASSERT_TRUE(r.has_value());
  EXPECT_NEAR(r->estimate, 7.5, 1e-9);
  EXPECT_NEAR(r->weights[0], 1.0, 1e-9);
}

TEST(Krige, ExactAtSupportPoints) {
  const k::LinearVariogram model(0.0, 0.7);
  const std::vector<std::vector<double>> pts = {{0.0}, {2.0}, {5.0}};
  const std::vector<double> vals = {1.0, -2.0, 4.0};
  for (std::size_t i = 0; i < pts.size(); ++i) {
    const auto r = one_shot(pts, vals, pts[i], model);
    ASSERT_TRUE(r.has_value());
    EXPECT_NEAR(r->estimate, vals[i], 1e-8) << "support point " << i;
    EXPECT_NEAR(r->variance, 0.0, 1e-8);
  }
}

TEST(Krige, WeightsSumToOne) {
  const k::SphericalVariogram model(0.0, 2.0, 8.0);
  const std::vector<std::vector<double>> pts = {
      {0.0, 0.0}, {1.0, 2.0}, {3.0, 1.0}, {4.0, 4.0}};
  const std::vector<double> vals = {1.0, 2.0, 0.5, -1.0};
  const auto r = one_shot(pts, vals, {2.0, 2.0}, model);
  ASSERT_TRUE(r.has_value());
  double sum = 0.0;
  for (double w : r->weights) sum += w;
  EXPECT_NEAR(sum, 1.0, 1e-9);  // Unbiasedness constraint (Eq. 6).
}

TEST(Krige, MidpointOfTwoPointsIsTheirAverage) {
  // With a symmetric variogram, the midpoint weights are (1/2, 1/2).
  const k::LinearVariogram model(0.0, 1.0);
  const auto r = one_shot({{0.0}, {4.0}}, {2.0, 6.0}, {2.0}, model);
  ASSERT_TRUE(r.has_value());
  EXPECT_NEAR(r->estimate, 4.0, 1e-9);
  EXPECT_NEAR(r->weights[0], 0.5, 1e-9);
  EXPECT_NEAR(r->weights[1], 0.5, 1e-9);
}

TEST(Krige, LinearVariogramInterpolatesLinearly1D) {
  // Classic result: ordinary kriging with a linear variogram between two
  // support points reduces to linear interpolation.
  const k::LinearVariogram model(0.0, 1.0);
  const auto r = one_shot({{0.0}, {10.0}}, {0.0, 5.0}, {3.0}, model);
  ASSERT_TRUE(r.has_value());
  EXPECT_NEAR(r->estimate, 1.5, 1e-9);
}

TEST(Krige, CloserPointGetsLargerWeight) {
  const k::ExponentialVariogram model(0.0, 1.0, 5.0);
  const auto r = one_shot({{1.0}, {9.0}}, {10.0, 20.0}, {2.0}, model);
  ASSERT_TRUE(r.has_value());
  EXPECT_GT(r->weights[0], r->weights[1]);
  EXPECT_GT(r->estimate, 10.0);
  EXPECT_LT(r->estimate, 20.0);
}

TEST(Krige, DegenerateVariogramFallsBackViaRidge) {
  // γ ≡ 0 makes the core of Γ all-zero: the ridge fallback yields equal
  // weights (the support mean) instead of failing.
  const k::LinearVariogram model(0.0, 0.0);
  const auto r = one_shot({{0.0}, {1.0}, {2.0}}, {3.0, 6.0, 9.0},
                          {1.0}, model);
  ASSERT_TRUE(r.has_value());
  EXPECT_TRUE(r->regularized);
  EXPECT_NEAR(r->estimate, 6.0, 1e-6);
}

TEST(Krige, DuplicateSupportPointsAreHandled) {
  const k::LinearVariogram model(0.0, 1.0);
  // Two identical support points make Γ singular; ridge rescues.
  const auto r =
      one_shot({{0.0}, {0.0}, {4.0}}, {2.0, 2.0, 6.0}, {2.0}, model);
  ASSERT_TRUE(r.has_value());
  EXPECT_NEAR(r->estimate, 4.0, 0.1);
}

TEST(Krige, VarianceGrowsWithDistanceFromSupport) {
  const k::LinearVariogram model(0.0, 1.0);
  const std::vector<std::vector<double>> pts = {{0.0}, {1.0}};
  const std::vector<double> vals = {1.0, 2.0};
  const auto near = one_shot(pts, vals, {0.5}, model);
  const auto far = one_shot(pts, vals, {10.0}, model);
  ASSERT_TRUE(near.has_value());
  ASSERT_TRUE(far.has_value());
  EXPECT_GT(far->variance, near->variance);
}

TEST(OrdinaryKriging, ReusableEstimatorMatchesOneShot) {
  // One system built once and queried at several points answers each
  // query exactly like a fresh one-shot system: every query factors the
  // matrix a fresh system would build.
  const k::SphericalVariogram model(0.1, 1.0, 6.0);
  const std::vector<std::vector<double>> pts = {{0.0, 1.0}, {2.0, 0.0},
                                                {1.0, 3.0}};
  const std::vector<double> vals = {1.0, 4.0, -2.0};
  k::KrigingSystem estimator(k::SystemSpec{k::SystemKind::kOrdinary}, pts,
                             vals, model);
  EXPECT_EQ(estimator.support_size(), 3u);
  for (const auto& q : std::vector<std::vector<double>>{
           {1.0, 1.0}, {0.0, 0.0}, {2.0, 2.0}}) {
    const auto a = estimator.query(q);
    const auto b = one_shot(pts, vals, q, model);
    ASSERT_TRUE(a.has_value());
    ASSERT_TRUE(b.has_value());
    EXPECT_EQ(a->estimate, b->estimate);
    EXPECT_EQ(a->variance, b->variance);
    EXPECT_EQ(a->weights, b->weights);
  }
}

TEST(Krige, QueryDimensionMismatchThrows) {
  const k::LinearVariogram model(0.0, 1.0);
  EXPECT_THROW((void)one_shot({{0.0, 0.0}}, {1.0}, {0.0}, model),
               std::invalid_argument);
}

}  // namespace
