#include "dse/min_plus_one.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

namespace {

namespace d = ace::dse;

/// Separable analytic accuracy: λ(w) = Σ 6·(min(w_i, sat) − base). Monotone
/// non-decreasing in every variable, as quantization-noise accuracy is.
struct SeparableSurface {
  double operator()(const d::Config& w) const {
    double acc = 0.0;
    for (int wi : w) acc += 6.0 * (std::min(wi, 14) - 2);
    return acc;
  }
};

/// A BatchEvaluateFn that puts each candidate to `f` in index order.
template <typename F>
d::BatchEvaluateFn each(F f) {
  return [f](const std::vector<d::Config>& batch) {
    std::vector<double> values;
    for (const d::Config& w : batch) values.push_back(f(w));
    return values;
  };
}

const d::BatchEvaluateFn kSeparable = each(SeparableSurface{});

/// Phase 1 alone (Algorithm 1): a full-run cursor stepped until phase 2
/// begins, one variable's descent per step.
d::Config phase1(const d::BatchEvaluateFn& evaluate,
                 const d::MinPlusOneOptions& o) {
  d::MinPlusOneCursor cursor = d::make_min_plus_one_cursor(o);
  std::size_t steps = 0;
  while (cursor.phase == 1) {
    EXPECT_TRUE(d::min_plus_one_step(evaluate, o, cursor));
    ++steps;
  }
  EXPECT_EQ(steps, o.nv);
  EXPECT_EQ(cursor.w, cursor.w_min);  // Phase 2 starts from the result.
  return cursor.w_min;
}

TEST(MinPlusOne, OptionValidation) {
  d::MinPlusOneOptions o;
  o.nv = 0;
  EXPECT_THROW((void)d::min_plus_one(kSeparable, o),
               std::invalid_argument);
  o.nv = 2;
  o.w_min = 10;
  o.w_max = 5;
  EXPECT_THROW((void)d::min_plus_one(kSeparable, o),
               std::invalid_argument);
  o.w_min = 1;
  o.w_max = 8;
  EXPECT_THROW((void)d::min_plus_one(kSeparable, o),
               std::invalid_argument);
}

TEST(MinPlusOnePhase1, FindsPerVariableMinimum) {
  // λ with both at 16: 2·6·12 = 144. Dropping one variable to wi loses
  // 6·(14 − wi)... constraint λm = 120 → need min(wi,14) >= 10.
  d::MinPlusOneOptions o;
  o.nv = 2;
  o.w_max = 16;
  o.w_min = 2;
  o.lambda_min = 120.0;
  const auto w_min = phase1(kSeparable, o);
  ASSERT_EQ(w_min.size(), 2u);
  EXPECT_EQ(w_min[0], 10);
  EXPECT_EQ(w_min[1], 10);
}

TEST(MinPlusOnePhase1, FloorIsRespectedWhenConstraintNeverBreaks) {
  d::MinPlusOneOptions o;
  o.nv = 3;
  o.w_max = 12;
  o.w_min = 2;
  o.lambda_min = -1000.0;  // Always satisfied.
  const auto w_min = phase1(kSeparable, o);
  for (int wi : w_min) EXPECT_EQ(wi, 2);
}

TEST(MinPlusOnePhase1, StuckAtMaxWhenConstraintUnreachable) {
  d::MinPlusOneOptions o;
  o.nv = 2;
  o.w_max = 16;
  o.w_min = 2;
  o.lambda_min = 1e9;  // Unreachable.
  const auto w_min = phase1(kSeparable, o);
  // First decrement already violates, so the +1 backoff restores w_max.
  for (int wi : w_min) EXPECT_EQ(wi, 16);
}

TEST(MinPlusOnePhase2, ClimbsUntilConstraintMet) {
  d::MinPlusOneOptions o;
  o.nv = 3;
  o.w_max = 16;
  o.w_min = 2;
  o.lambda_min = 150.0;  // From (4,4,4): λ = 3·6·2 = 36 — must climb.
  const auto result =
      d::optimize_word_lengths(kSeparable, o, {4, 4, 4});
  EXPECT_TRUE(result.constraint_met);
  EXPECT_GE(result.final_lambda, o.lambda_min);
  // λ increments are 6 per bit: needs ceil((150−36)/6) = 19 steps.
  EXPECT_EQ(result.decisions.size(), 19u);
  // Greedy should not exceed the constraint by more than one step's gain.
  EXPECT_LT(result.final_lambda, o.lambda_min + 6.0);
}

TEST(MinPlusOnePhase2, TiesGoToTheLowestVariableIndex) {
  // Every +1 bit below saturation gains the same 6: variable 0 wins each
  // tie until it saturates at 14, then variable 1 takes over.
  d::MinPlusOneOptions o;
  o.nv = 3;
  o.w_max = 16;
  o.w_min = 2;
  o.lambda_min = 150.0;
  const auto result = d::optimize_word_lengths(kSeparable, o, {4, 4, 4});
  std::vector<std::size_t> expected(10, 0);
  expected.insert(expected.end(), 9, 1);
  EXPECT_EQ(result.decisions, expected);
  EXPECT_EQ(result.w_res, (d::Config{14, 13, 4}));
}

TEST(MinPlusOnePhase2, SaturatesGracefullyWhenUnreachable) {
  d::MinPlusOneOptions o;
  o.nv = 2;
  o.w_max = 6;
  o.w_min = 2;
  o.lambda_min = 1e9;
  const auto result =
      d::optimize_word_lengths(kSeparable, o, {2, 2});
  EXPECT_FALSE(result.constraint_met);
  EXPECT_EQ(result.w_res, (d::Config{6, 6}));  // All at w_max.
}

TEST(MinPlusOnePhase2, StartSizeMismatchThrows) {
  d::MinPlusOneOptions o;
  o.nv = 3;
  EXPECT_THROW((void)d::optimize_word_lengths(kSeparable, o, {4, 4}),
               std::invalid_argument);
}

TEST(MinPlusOnePhase2, PrefersTheMostValuableVariable) {
  // Weighted surface: variable 0 contributes 3× more per bit.
  auto surface = [](const d::Config& w) {
    return 9.0 * (w[0] - 2) + 3.0 * (w[1] - 2);
  };
  d::MinPlusOneOptions o;
  o.nv = 2;
  o.w_max = 16;
  o.w_min = 2;
  o.lambda_min = 40.0;
  const auto result = d::optimize_word_lengths(each(surface), o, {2, 2});
  EXPECT_TRUE(result.constraint_met);
  // All early decisions should pick variable 0 (biggest gain).
  ASSERT_FALSE(result.decisions.empty());
  for (const std::size_t jc : result.decisions) EXPECT_EQ(jc, 0u);
}

TEST(MinPlusOne, FullAlgorithmEndsFeasibleAndRecordsPhases) {
  d::MinPlusOneOptions o;
  o.nv = 4;
  o.w_max = 16;
  o.w_min = 2;
  o.lambda_min = 200.0;
  const auto result = d::min_plus_one(kSeparable, o);
  EXPECT_TRUE(result.constraint_met);
  EXPECT_EQ(result.w_min.size(), 4u);
  EXPECT_EQ(result.w_res.size(), 4u);
  // Result dominates the phase-1 start.
  for (std::size_t i = 0; i < 4; ++i)
    EXPECT_GE(result.w_res[i], result.w_min[i]);
  EXPECT_GE(result.final_lambda, o.lambda_min);
}

TEST(MinPlusOnePhase1, AllMaxConfigIsEvaluatedExactlyOnce) {
  // Regression: every per-variable descent starts from the same all-Nmax
  // configuration; it used to be re-evaluated once per variable, costing
  // Nv − 1 redundant simulations before the descent even started.
  d::MinPlusOneOptions o;
  o.nv = 6;
  o.w_max = 16;
  o.w_min = 2;
  // With all six at 16, λ = 432; each variable's descent breaks the
  // constraint at wi = 11 (λ = 414), so every descent takes 5 evaluations.
  o.lambda_min = 416.0;
  const d::Config all_max(o.nv, o.w_max);
  std::size_t all_max_evals = 0;
  std::size_t total_evals = 0;
  std::size_t batches = 0;
  const d::BatchEvaluateFn counted = [&](const std::vector<d::Config>& b) {
    // Each phase-1 evaluation depends on the previous λ: batches of one.
    EXPECT_EQ(b.size(), 1u);
    ++batches;
    for (const d::Config& w : b) {
      ++total_evals;
      if (w == all_max) ++all_max_evals;
    }
    return kSeparable(b);
  };
  const auto w_min = phase1(counted, o);
  EXPECT_EQ(all_max_evals, 1u);
  // The hoisted warm-up is the only evaluation besides the descents.
  EXPECT_EQ(total_evals, 1u + 6u * 5u);  // 5 decrements per variable.
  EXPECT_EQ(batches, total_evals);
  EXPECT_EQ(w_min, phase1(kSeparable, o));
}

TEST(MinPlusOne, MaxStepsCapIsHonoured) {
  d::MinPlusOneOptions o;
  o.nv = 2;
  o.w_max = 16;
  o.w_min = 2;
  o.lambda_min = 1e9;
  o.max_steps = 3;
  const auto result = d::optimize_word_lengths(kSeparable, o, {2, 2});
  EXPECT_LE(result.decisions.size(), 3u);
  EXPECT_FALSE(result.constraint_met);
}

}  // namespace
