// Integration tests: the full Table-I pipeline on down-scaled benchmarks.
#include "core/table1.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>

#include "util/thread_pool.hpp"

namespace {

namespace c = ace::core;
namespace d = ace::dse;

c::ApplicationBenchmark tiny_fir() {
  c::SignalBenchOptions o;
  o.samples = 128;
  o.lambda_min_db = 45.0;
  return c::make_fir_benchmark(o);
}

TEST(Table1, Validation) {
  const auto bench = tiny_fir();
  EXPECT_THROW((void)c::run_table1(bench, {}), std::invalid_argument);
  c::ApplicationBenchmark broken = bench;
  broken.simulate = nullptr;
  EXPECT_THROW((void)c::run_table1(broken, {2}), std::invalid_argument);
}

TEST(Table1, FirPipelineProducesConsistentRows) {
  const auto bench = tiny_fir();
  const auto result = c::run_table1(bench, {2, 3, 4, 5});
  EXPECT_EQ(result.benchmark, "FIR");
  ASSERT_EQ(result.rows.size(), 4u);
  EXPECT_GT(result.trajectory.size(), 10u);
  EXPECT_GE(result.exact_lambda, bench.min_plus_one.lambda_min);

  double prev_p = -1.0;
  for (const auto& row : result.rows) {
    EXPECT_GE(row.p_percent, 0.0);
    EXPECT_LE(row.p_percent, 100.0);
    EXPECT_GE(row.eps_max, row.eps_mean);
    EXPECT_GE(row.eps_mean, 0.0);
    // p grows with d — the paper's headline trend. A small tolerance
    // absorbs second-order effects (interpolated points deplete the store).
    EXPECT_GE(row.p_percent, prev_p - 5.0);
    prev_p = row.p_percent;
    if (row.p_percent > 0.0) EXPECT_GE(row.j_mean, 2.0);
  }
}

TEST(Table1, SomeConfigurationsAreInterpolatedAtModerateDistance) {
  const auto result = c::run_table1(tiny_fir(), {3});
  ASSERT_EQ(result.rows.size(), 1u);
  EXPECT_GT(result.rows[0].p_percent, 5.0);
  EXPECT_LT(result.rows[0].eps_mean, 5.0);  // Bits: sane interpolation.
}

TEST(Table1, PrintProducesPaperLikeLayout) {
  const auto result = c::run_table1(tiny_fir(), {2, 3});
  std::ostringstream ss;
  c::print_table1(ss, result);
  const std::string out = ss.str();
  EXPECT_NE(out.find("FIR"), std::string::npos);
  EXPECT_NE(out.find("p(%)"), std::string::npos);
  EXPECT_NE(out.find("bits"), std::string::npos);
}

TEST(Table1, TrajectoryHasNoDuplicateConfigs) {
  const auto result = c::run_table1(tiny_fir(), {2});
  const auto& t = result.trajectory;
  for (std::size_t i = 0; i < t.size(); ++i)
    for (std::size_t j = i + 1; j < t.size(); ++j)
      EXPECT_NE(t.configs[i], t.configs[j]) << i << " vs " << j;
}

TEST(Table1, PooledExactRunMatchesInline) {
  // The exact run simulates each step's candidates on the pool; the
  // recorded trajectory, the solution and every row keep their bits.
  c::SignalBenchOptions o;
  o.samples = 128;
  o.lambda_min_db = 40.0;
  const auto bench = c::make_iir_benchmark(o);
  const auto serial = c::run_table1(bench, {2, 4});
  ace::util::ThreadPool pool(3);
  const auto pooled = c::run_table1(bench, {2, 4}, {}, &pool);
  EXPECT_EQ(pooled.trajectory.configs, serial.trajectory.configs);
  EXPECT_EQ(pooled.trajectory.values, serial.trajectory.values);
  EXPECT_EQ(pooled.exact_solution, serial.exact_solution);
  EXPECT_EQ(pooled.exact_lambda, serial.exact_lambda);
  ASSERT_EQ(pooled.rows.size(), serial.rows.size());
  for (std::size_t i = 0; i < serial.rows.size(); ++i) {
    EXPECT_EQ(pooled.rows[i].p_percent, serial.rows[i].p_percent);
    EXPECT_EQ(pooled.rows[i].eps_mean, serial.rows[i].eps_mean);
  }
}

TEST(MeasureSpeedup, ReportsConsistentNumbers) {
  const auto bench = tiny_fir();
  const auto result = c::run_table1(bench, {3});
  const auto timing = c::measure_speedup(bench, result, 3);
  EXPECT_GT(timing.sim_seconds, 0.0);
  EXPECT_GE(timing.krig_seconds, 0.0);
  EXPECT_GE(timing.p, 0.0);
  EXPECT_LE(timing.p, 1.0);
#ifdef NDEBUG
  // Interpolation is cheaper than sim — but only in optimized builds; in
  // Debug the contract checks dominate this micro-sized workload and the
  // wall-clock ratio is meaningless.
  EXPECT_GE(timing.speedup, 1.0);
#endif
  EXPECT_THROW((void)c::measure_speedup(bench, result, 99),
               std::invalid_argument);
}

TEST(DecisionDivergence, KrigingRunStaysCloseToExact) {
  const auto bench = tiny_fir();
  d::PolicyOptions options;
  options.distance = 2;
  const auto report = c::run_decision_divergence(bench, options);
  EXPECT_EQ(report.exact_result.size(), 2u);
  EXPECT_EQ(report.kriging_result.size(), 2u);
  EXPECT_GE(report.diverging_percent, 0.0);
  EXPECT_LE(report.diverging_percent, 100.0);
  // The paper: the final result stays similar; allow a loose bound here.
  EXPECT_LE(report.result_l1_gap, 8);
  EXPECT_GT(report.stats.total, 0u);
}

TEST(Table1, IirPipelineRunsEndToEnd) {
  c::SignalBenchOptions o;
  o.samples = 128;
  o.lambda_min_db = 40.0;
  const auto bench = c::make_iir_benchmark(o);
  const auto result = c::run_table1(bench, {2, 4});
  ASSERT_EQ(result.rows.size(), 2u);
  EXPECT_GT(result.trajectory.size(), 20u);
  EXPECT_LE(result.rows[0].p_percent, result.rows[1].p_percent + 5.0);
}

}  // namespace
