#include "dse/scheduler.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>
#include <vector>

#include "dse/steepest_descent.hpp"
#include "util/thread_pool.hpp"

namespace {

namespace d = ace::dse;

double smooth_surface(const d::Config& w) {
  return 5.0 * w[0] + 3.0 * w[1];
}

d::PolicyOptions options_with(int distance) {
  d::PolicyOptions o;
  o.distance = distance;
  o.min_fit_points = 8;
  return o;
}

TEST(PolicyEvaluator, NullSimulatorThrows) {
  d::KrigingPolicy policy(options_with(2));
  EXPECT_THROW((void)d::policy_evaluator(policy, nullptr),
               std::invalid_argument);
}

TEST(PolicyEvaluator, RepeatedConfigurationIsTheStoresExactHit) {
  std::size_t calls = 0;
  const d::SimulatorFn counted = [&](const d::Config& w) {
    ++calls;
    return smooth_surface(w);
  };
  d::KrigingPolicy policy(options_with(2));
  const d::EvaluateFn evaluate = d::policy_evaluator(policy, counted);
  const double a = evaluate({4, 4});
  const double b = evaluate({4, 4});
  EXPECT_EQ(calls, 1u);
  EXPECT_DOUBLE_EQ(a, 32.0);
  EXPECT_DOUBLE_EQ(b, a);
  const d::PolicyStats stats = policy.stats();
  EXPECT_EQ(stats.total, 2u);
  EXPECT_EQ(stats.simulated, 1u);
  EXPECT_EQ(stats.exact_hits, 1u);
  // The evaluator's value is the policy's outcome value: a third look
  // through the policy itself is served from the store as well.
  const d::EvalOutcome again = policy.evaluate({4, 4}, counted);
  EXPECT_TRUE(again.cached);
  EXPECT_DOUBLE_EQ(again.value, a);
  EXPECT_EQ(calls, 1u);
}

TEST(PolicyEvaluator, StatsAccumulateAcrossEvaluations) {
  d::KrigingPolicy policy(options_with(3));
  const d::EvaluateFn evaluate = d::policy_evaluator(policy, smooth_surface);
  for (int x = 0; x < 4; ++x)
    for (int y = 0; y < 4; ++y) (void)evaluate({x, y});
  const d::PolicyStats stats = policy.stats();
  EXPECT_EQ(stats.total, 16u);
  EXPECT_EQ(stats.simulated + stats.interpolated, 16u);
  EXPECT_GT(stats.interpolated, 0u);  // Dense cluster: kriging fires.
}

TEST(PolicyEvaluator, MinPlusOneMeetsConstraint) {
  // λ(w) = 5w0 + 3w1: constraint 100 reachable within [2, 16]².
  d::KrigingPolicy policy(options_with(2));
  d::MinPlusOneOptions o;
  o.nv = 2;
  o.w_max = 16;
  o.w_min = 2;
  o.lambda_min = 100.0;
  const auto result =
      d::min_plus_one(d::policy_evaluator(policy, smooth_surface), o);
  EXPECT_TRUE(result.constraint_met);
  // Exact surface check at the claimed solution.
  EXPECT_GE(smooth_surface(result.w_res), 100.0 - 5.0);
  EXPECT_GT(policy.stats().total, 0u);
}

TEST(PolicyEvaluator, SteepestDescentMeetsFloor) {
  auto quality = [](const d::Config& levels) {
    double damage = 0.0;
    for (int e : levels) damage += std::ldexp(1.0, -e);
    return 1.0 - damage;
  };
  d::KrigingPolicy policy(options_with(2));
  d::SensitivityOptions o;
  o.nv = 2;
  o.level_max = 10;
  o.level_min = 0;
  o.lambda_min = 0.9;
  const auto result = d::steepest_descent_budgeting(
      d::policy_evaluator(policy, quality), o);
  EXPECT_TRUE(result.feasible);
  EXPECT_GE(result.final_lambda, 0.85);  // Kriged estimates may wobble a bit.
}

TEST(PolicyEvaluator, SensitivityFlowKeepsQualityMetricConsistent) {
  auto quality = [](const d::Config& levels) {
    double damage = 0.0;
    for (int e : levels) damage += 0.4 * std::ldexp(1.0, -e);
    return 1.0 - damage;
  };
  d::KrigingPolicy policy(d::PolicyOptions{});
  d::SensitivityOptions options;
  options.nv = 2;
  options.level_max = 10;
  options.lambda_min = 0.9;
  const auto result = d::steepest_descent_budgeting(
      d::policy_evaluator(policy, quality), options);
  EXPECT_TRUE(result.feasible);
  EXPECT_GE(quality(result.levels), 0.85);
}

TEST(PolicyEvaluator, ValueIsThePolicysOutcomeValue) {
  // Twin policies fed the same walk: the evaluator's value is, bit for
  // bit, what KrigingPolicy::evaluate returns, interpolations included.
  d::KrigingPolicy bound(options_with(3));
  d::KrigingPolicy direct(options_with(3));
  const d::EvaluateFn evaluate = d::policy_evaluator(bound, smooth_surface);
  std::size_t interpolated = 0;
  for (int x = 0; x < 6; ++x)
    for (int y = 0; y < 6; ++y) {
      const d::EvalOutcome outcome = direct.evaluate({x, y}, smooth_surface);
      EXPECT_EQ(evaluate({x, y}), outcome.value);
      if (outcome.interpolated) ++interpolated;
    }
  EXPECT_GT(interpolated, 0u);
  EXPECT_EQ(bound.stats(), direct.stats());
}

TEST(PolicyEvaluator, KeepsItsOwnCopyOfTheSimulator) {
  d::KrigingPolicy policy(options_with(2));
  d::EvaluateFn evaluate;
  {
    d::SimulatorFn scoped = smooth_surface;
    evaluate = d::policy_evaluator(policy, scoped);
    scoped = [](const d::Config&) { return -1.0; };
  }
  EXPECT_DOUBLE_EQ(evaluate({4, 4}), 32.0);
}

TEST(PolicyEvaluator, FaultedSimulationScoresNegativeInfinity) {
  // A throwing simulator is captured into a faulted outcome, not
  // propagated: the optimizer sees -inf, and the configuration is
  // quarantined so a repeat never reaches the simulator again.
  std::size_t calls = 0;
  d::KrigingPolicy policy(options_with(2));
  const d::EvaluateFn evaluate =
      d::policy_evaluator(policy, [&](const d::Config& w) -> double {
        ++calls;
        if (w == d::Config{9, 9}) throw std::runtime_error("broken");
        return smooth_surface(w);
      });
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(evaluate({9, 9}), -inf);
  EXPECT_EQ(evaluate({9, 9}), -inf);
  EXPECT_EQ(calls, 1u);
  EXPECT_DOUBLE_EQ(evaluate({2, 2}), 16.0);
  const d::PolicyStats stats = policy.stats();
  EXPECT_EQ(stats.quarantined, 1u);
  EXPECT_EQ(stats.simulator_faults, 1u);
}

TEST(PolicyEvaluator, SharesTheStoreWithTheBatchEvaluator) {
  std::size_t calls = 0;
  const d::SimulatorFn counted = [&](const d::Config& w) {
    ++calls;
    return smooth_surface(w);
  };
  d::KrigingPolicy policy(options_with(0));
  const d::BatchEvaluateFn batch = d::policy_batch_evaluator(policy, counted);
  const d::EvaluateFn scalar = d::policy_evaluator(policy, counted);
  (void)batch({{1, 1}, {6, 2}});
  EXPECT_EQ(calls, 2u);
  EXPECT_DOUBLE_EQ(scalar({6, 2}), 36.0);
  EXPECT_EQ(calls, 2u);
  EXPECT_EQ(policy.stats().exact_hits, 1u);
}

TEST(PolicyBatchEvaluator, ValuesFollowCandidateOrder) {
  // Far-apart candidates on an empty store are all simulated; the values
  // come back in candidate order.
  d::KrigingPolicy policy(options_with(1));
  const std::vector<d::Config> batch = {{10, 0}, {0, 10}, {5, 5}};
  const std::vector<double> values =
      d::policy_batch_evaluator(policy, smooth_surface)(batch);
  ASSERT_EQ(values.size(), batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i)
    EXPECT_DOUBLE_EQ(values[i], smooth_surface(batch[i]));
  EXPECT_EQ(policy.stats().simulated, 3u);
}

TEST(PolicyBatchEvaluator, EmptyBatchIsEmpty) {
  d::KrigingPolicy policy(options_with(2));
  EXPECT_TRUE(d::policy_batch_evaluator(policy, smooth_surface)({}).empty());
  EXPECT_EQ(policy.stats().total, 0u);
}

TEST(PolicyBatchEvaluator, PooledRunMatchesInlineRun) {
  d::MinPlusOneOptions o;
  o.nv = 2;
  o.w_max = 16;
  o.w_min = 2;
  o.lambda_min = 100.0;
  d::KrigingPolicy inline_policy(options_with(2));
  const auto inline_result = d::min_plus_one(
      d::policy_batch_evaluator(inline_policy, smooth_surface), o);
  ace::util::ThreadPool pool(2);
  d::KrigingPolicy pooled_policy(options_with(2));
  const auto pooled_result = d::min_plus_one(
      d::policy_batch_evaluator(pooled_policy, smooth_surface, &pool), o);
  EXPECT_EQ(pooled_result.w_res, inline_result.w_res);
  EXPECT_EQ(pooled_result.final_lambda, inline_result.final_lambda);
  EXPECT_EQ(pooled_policy.stats(), inline_policy.stats());
}

}  // namespace
