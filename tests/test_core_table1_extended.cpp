// Additional integration coverage for the experiment harness: sensitivity
// (quality-rate) pipelines, divergence on the budgeting optimizer, and
// policy knob plumbing through run_table1.
#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <sstream>
#include <string>

#include "core/table1.hpp"
#include "dse/scheduler.hpp"

namespace {

namespace c = ace::core;
namespace d = ace::dse;

/// A tiny analytic sensitivity benchmark (no heavy substrate): quality
/// 1 − Σ k_i·2^-e_i over 3 sources, like the CNN benchmark in miniature.
c::ApplicationBenchmark tiny_sensitivity() {
  c::ApplicationBenchmark bench;
  bench.name = "toy-sens";
  bench.nv = 3;
  bench.metric = d::MetricKind::kQualityRate;
  bench.optimizer = c::OptimizerKind::kSteepestDescent;
  bench.sensitivity.lambda_min = 0.9;
  bench.sensitivity.nv = 3;
  bench.sensitivity.level_min = 0;
  bench.sensitivity.level_max = 12;
  bench.simulate = [](const d::Config& levels) {
    const double k[3] = {1.0, 0.5, 0.25};
    double damage = 0.0;
    for (std::size_t i = 0; i < 3; ++i)
      damage += k[i] * std::ldexp(1.0, -levels[i]);
    return 1.0 - damage;
  };
  return bench;
}

TEST(Table1Sensitivity, PipelineRunsWithQualityRateMetric) {
  const auto bench = tiny_sensitivity();
  const auto result = c::run_table1(bench, {2, 4});
  EXPECT_EQ(result.metric, d::MetricKind::kQualityRate);
  EXPECT_GT(result.trajectory.size(), 10u);
  EXPECT_GE(result.exact_lambda, 0.9);
  for (const auto& row : result.rows) {
    EXPECT_GE(row.p_percent, 0.0);
    EXPECT_GE(row.eps_max, row.eps_mean);
  }
}

TEST(Table1Sensitivity, PrintUsesRelativeEpsilonColumns) {
  const auto result = c::run_table1(tiny_sensitivity(), {3});
  std::ostringstream ss;
  c::print_table1(ss, result);
  EXPECT_NE(ss.str().find("rel"), std::string::npos);
  EXPECT_NE(ss.str().find("%"), std::string::npos);
  EXPECT_EQ(ss.str().find("bits"), std::string::npos);
}

TEST(Table1Sensitivity, MeasureSpeedupWorksOnQualityMetric) {
  const auto bench = tiny_sensitivity();
  const auto result = c::run_table1(bench, {3});
  const auto timing = c::measure_speedup(bench, result, 3);
  // This toy simulator is a nanosecond lambda — cheaper than a kriging
  // solve — so the honest speed-up is BELOW 1: the method only pays when
  // t_sim >> t_krig (as in every real benchmark). Assert consistency of
  // the report, not a gain.
  EXPECT_GT(timing.speedup, 0.0);
  EXPECT_GE(timing.p, 0.0);
  EXPECT_LE(timing.p, 1.0);
  EXPECT_GT(timing.krig_seconds, 0.0);
}

TEST(DecisionDivergence, RunsOnSensitivityOptimizer) {
  const auto bench = tiny_sensitivity();
  d::PolicyOptions options;
  options.distance = 2;
  const auto report = c::run_decision_divergence(bench, options);
  EXPECT_GT(report.exact_steps, 0u);
  EXPECT_GE(report.diverging_percent, 0.0);
  EXPECT_LE(report.diverging_percent, 100.0);
  EXPECT_EQ(report.exact_result.size(), 3u);
  EXPECT_EQ(report.kriging_result.size(), 3u);
}

TEST(Table1, PolicyKnobsArePlumbedThrough) {
  const auto bench = tiny_sensitivity();
  // nn_min high enough that nothing can be interpolated.
  d::PolicyOptions strict;
  strict.nn_min = 1000;
  const auto result = c::run_table1(bench, {4}, strict);
  EXPECT_DOUBLE_EQ(result.rows[0].p_percent, 0.0);
}

TEST(Table1, SameTrajectoryAcrossPolicyKnobs) {
  // The exact trajectory must not depend on replay policy settings.
  const auto bench = tiny_sensitivity();
  const auto a = c::run_table1(bench, {2});
  d::PolicyOptions other;
  other.nn_min = 3;
  const auto b = c::run_table1(bench, {5}, other);
  ASSERT_EQ(a.trajectory.size(), b.trajectory.size());
  for (std::size_t i = 0; i < a.trajectory.size(); ++i) {
    EXPECT_EQ(a.trajectory.configs[i], b.trajectory.configs[i]);
    EXPECT_DOUBLE_EQ(a.trajectory.values[i], b.trajectory.values[i]);
  }
}

TEST(DecisionDivergence, KrigedRunIsAPolicyEvaluatorRun) {
  // The report's kriging half is one optimizer run through a fresh
  // policy's evaluator: replaying that by hand gives the same answer,
  // step count and statistics.
  const auto bench = tiny_sensitivity();
  d::PolicyOptions options;
  options.distance = 2;
  const auto report = c::run_decision_divergence(bench, options);
  d::KrigingPolicy policy(options);
  const d::OptimizerCursor kriged =
      bench.run_optimizer(d::policy_evaluator(policy, bench.simulate));
  EXPECT_EQ(report.kriging_result, d::cursor_solution(kriged));
  EXPECT_EQ(report.kriging_steps, d::cursor_decisions(kriged).size());
  EXPECT_EQ(report.stats, policy.stats());
  EXPECT_EQ(report.result_l1_gap,
            d::l1_distance(report.exact_result, report.kriging_result));
}

TEST(DecisionDivergence, FirExactRunMakesNoGreedyStep) {
  // Why FIR is not a row of bench/decision_divergence: its phase-1
  // answer already meets λ_min, so there is no decision to flip.
  d::PolicyOptions options;
  options.distance = 3;
  const auto report =
      c::run_decision_divergence(c::make_fir_benchmark(), options);
  EXPECT_EQ(report.exact_steps, 0u);
  EXPECT_EQ(report.diverging, 0u);
  EXPECT_EQ(report.diverging_percent, 0.0);
}

TEST(DecisionDivergence, ExactRunIgnoresPolicyOptions) {
  const auto bench = c::make_approx_fir_benchmark();
  d::PolicyOptions near;
  near.distance = 2;
  d::PolicyOptions far;
  far.distance = 4;
  const auto a = c::run_decision_divergence(bench, near);
  const auto b = c::run_decision_divergence(bench, far);
  EXPECT_EQ(a.exact_steps, b.exact_steps);
  EXPECT_EQ(a.exact_result, b.exact_result);
}

/// One row of bench/decision_divergence: a benchmark and a distance.
struct DivergenceRow {
  std::string label;
  std::function<c::ApplicationBenchmark()> make;
  int distance = 2;
};

class DivergenceRowTest : public ::testing::TestWithParam<DivergenceRow> {};

TEST_P(DivergenceRowTest, MakesGreedyStepsAndConsistentCounts) {
  const DivergenceRow& row = GetParam();
  d::PolicyOptions options;
  options.distance = row.distance;
  const auto report = c::run_decision_divergence(row.make(), options);
  // A row with no exact greedy step measures nothing.
  ASSERT_GT(report.exact_steps, 0u);
  EXPECT_LE(report.diverging, report.exact_steps);
  EXPECT_DOUBLE_EQ(report.diverging_percent,
                   100.0 * static_cast<double>(report.diverging) /
                       static_cast<double>(report.exact_steps));
  EXPECT_EQ(report.result_l1_gap,
            d::l1_distance(report.exact_result, report.kriging_result));
  EXPECT_GT(report.stats.total, 0u);
}

c::ApplicationBenchmark approx_fir() { return c::make_approx_fir_benchmark(); }
c::ApplicationBenchmark iir() { return c::make_iir_benchmark(); }
c::ApplicationBenchmark small_fft() {
  c::SignalBenchOptions o;
  o.samples = 256;
  return c::make_fft_benchmark(o);
}
c::ApplicationBenchmark iir_sensitivity() {
  return c::make_iir_sensitivity_benchmark();
}

INSTANTIATE_TEST_SUITE_P(
    BenchRows, DivergenceRowTest,
    ::testing::Values(DivergenceRow{"approx_fir_d2", approx_fir, 2},
                      DivergenceRow{"approx_fir_d3", approx_fir, 3},
                      DivergenceRow{"approx_fir_d4", approx_fir, 4},
                      DivergenceRow{"iir_d2", iir, 2},
                      DivergenceRow{"iir_d3", iir, 3},
                      DivergenceRow{"fft_d2", small_fft, 2},
                      DivergenceRow{"iir_sensitivity_d2", iir_sensitivity,
                                    2}),
    [](const ::testing::TestParamInfo<DivergenceRow>& info) {
      return info.param.label;
    });

}  // namespace
