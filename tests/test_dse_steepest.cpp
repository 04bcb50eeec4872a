#include "dse/steepest_descent.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <vector>

namespace {

namespace d = ace::dse;

/// Analytic quality: each source at level e contributes damage 2^-e·k_i;
/// quality = 1 − total damage. Monotone: lower levels hurt more.
struct QualitySurface {
  std::vector<double> sensitivity;
  double operator()(const d::Config& levels) const {
    double damage = 0.0;
    for (std::size_t i = 0; i < levels.size(); ++i)
      damage += sensitivity[i] * std::ldexp(1.0, -levels[i]);
    return 1.0 - damage;
  }
};

/// A BatchEvaluateFn that puts each candidate to `q` in index order.
d::BatchEvaluateFn each(const QualitySurface& q) {
  return [q](const std::vector<d::Config>& batch) {
    std::vector<double> values;
    for (const d::Config& levels : batch) values.push_back(q(levels));
    return values;
  };
}

TEST(SteepestDescent, OptionValidation) {
  QualitySurface q{{1.0}};
  d::SensitivityOptions o;
  o.nv = 0;
  EXPECT_THROW((void)d::steepest_descent_budgeting(each(q), o),
               std::invalid_argument);
  o.nv = 1;
  o.level_min = 5;
  o.level_max = 3;
  EXPECT_THROW((void)d::steepest_descent_budgeting(each(q), o),
               std::invalid_argument);
}

TEST(SteepestDescent, InfeasibleStartReturnsImmediately) {
  QualitySurface q{{10.0, 10.0}};  // Huge damage even at max level.
  d::SensitivityOptions o;
  o.nv = 2;
  o.level_max = 2;
  o.level_min = 0;
  o.lambda_min = 0.99;
  const auto r = d::steepest_descent_budgeting(each(q), o);
  EXPECT_FALSE(r.feasible);
  EXPECT_TRUE(r.decisions.empty());
  EXPECT_EQ(r.levels, (d::Config{2, 2}));
}

TEST(SteepestDescent, RelaxesUntilQualityBoundary) {
  // One source, quality 1 − 2^-e. Constraint 0.9 → needs 2^-e <= 0.1 →
  // e >= 4 (2^-4 = 0.0625; 2^-3 = 0.125 breaks).
  QualitySurface q{{1.0}};
  d::SensitivityOptions o;
  o.nv = 1;
  o.level_max = 10;
  o.level_min = 0;
  o.lambda_min = 0.9;
  const auto r = d::steepest_descent_budgeting(each(q), o);
  EXPECT_TRUE(r.feasible);
  EXPECT_EQ(r.levels, (d::Config{4}));
  EXPECT_EQ(r.decisions.size(), 6u);  // 10 -> 4.
  EXPECT_GE(r.final_lambda, 0.9);
}

TEST(SteepestDescent, RelaxesLeastSensitiveSourceFirst) {
  // Source 1 hurts 8× less per level: it should be relaxed before source 0.
  QualitySurface q{{0.8, 0.1}};
  d::SensitivityOptions o;
  o.nv = 2;
  o.level_max = 8;
  o.level_min = 0;
  o.lambda_min = 0.97;
  const auto r = d::steepest_descent_budgeting(each(q), o);
  EXPECT_TRUE(r.feasible);
  ASSERT_FALSE(r.decisions.empty());
  EXPECT_EQ(r.decisions.front(), 1u);
  // The cheap source should end at a lower (more relaxed) level.
  EXPECT_LT(r.levels[1], r.levels[0]);
}

TEST(SteepestDescent, FullyRelaxedStopsAtLevelMin) {
  QualitySurface q{{1e-9, 1e-9}};  // Damage never matters.
  d::SensitivityOptions o;
  o.nv = 2;
  o.level_max = 3;
  o.level_min = 0;
  o.lambda_min = 0.5;
  const auto r = d::steepest_descent_budgeting(each(q), o);
  EXPECT_TRUE(r.feasible);
  EXPECT_EQ(r.levels, (d::Config{0, 0}));
  EXPECT_EQ(r.decisions.size(), 6u);
}

TEST(SteepestDescent, MaxStepsCap) {
  QualitySurface q{{1e-9}};
  d::SensitivityOptions o;
  o.nv = 1;
  o.level_max = 100;  // Would take 100 steps.
  o.lambda_min = 0.5;
  o.max_steps = 7;
  const auto r = d::steepest_descent_budgeting(each(q), o);
  EXPECT_EQ(r.decisions.size(), 7u);
  EXPECT_EQ(r.levels[0], 93);
}

TEST(SteepestDescent, TiesGoToTheLowestSourceIndex) {
  // Equally sensitive sources tie at every step: the lower index is
  // relaxed first, and the two then alternate.
  QualitySurface q{{0.1, 0.1}};
  d::SensitivityOptions o;
  o.nv = 2;
  o.level_max = 8;
  o.level_min = 0;
  o.lambda_min = 0.9;
  const auto r = d::steepest_descent_budgeting(each(q), o);
  ASSERT_GE(r.decisions.size(), 2u);
  for (std::size_t k = 0; k < r.decisions.size(); ++k)
    EXPECT_EQ(r.decisions[k], k % 2) << "step " << k;
}

TEST(SteepestDescent, NeverCommitsAnInfeasibleMove) {
  QualitySurface q{{0.5, 0.5}};
  d::SensitivityOptions o;
  o.nv = 2;
  o.level_max = 6;
  o.level_min = 0;
  o.lambda_min = 0.8;
  const auto r = d::steepest_descent_budgeting(each(q), o);
  EXPECT_TRUE(r.feasible);
  EXPECT_GE(r.final_lambda, 0.8);
  EXPECT_GE(q(r.levels), 0.8);
}

}  // namespace
