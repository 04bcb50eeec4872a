#include "dse/trajectory.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "dse/min_plus_one.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace {

namespace d = ace::dse;

TEST(TrajectoryRecorder, NullSimulatorThrows) {
  EXPECT_THROW(d::TrajectoryRecorder(nullptr), std::invalid_argument);
}

TEST(TrajectoryRecorder, MemoizesAndRecordsInOrder) {
  std::size_t calls = 0;
  d::TrajectoryRecorder rec([&](const d::Config& c) {
    ++calls;
    return static_cast<double>(c[0]);
  });
  const d::BatchEvaluateFn evaluate = rec.evaluator();
  EXPECT_EQ(evaluate({{3}}), std::vector<double>{3.0});
  EXPECT_EQ(evaluate({{5}}), std::vector<double>{5.0});
  EXPECT_EQ(evaluate({{3}}), std::vector<double>{3.0});  // Recorded.
  EXPECT_EQ(calls, 2u);
  EXPECT_EQ(rec.unique_evaluations(), 2u);
  ASSERT_EQ(rec.trajectory().size(), 2u);
  EXPECT_EQ(rec.trajectory().configs[0], (d::Config{3}));
  EXPECT_EQ(rec.trajectory().configs[1], (d::Config{5}));
  EXPECT_DOUBLE_EQ(rec.trajectory().values[1], 5.0);
}

TEST(TrajectoryRecorder, DuplicatesInOneBatchSimulateOnce) {
  std::vector<d::Config> simulated;
  d::TrajectoryRecorder rec([&](const d::Config& c) {
    simulated.push_back(c);
    return 10.0 * c[0];
  });
  const auto values = rec.evaluator()({{7}, {2}, {7}, {2}, {9}});
  EXPECT_EQ(values, (std::vector<double>{70.0, 20.0, 70.0, 20.0, 90.0}));
  EXPECT_EQ(simulated, (std::vector<d::Config>{{7}, {2}, {9}}));
  EXPECT_EQ(rec.trajectory().configs, simulated);
  EXPECT_EQ(rec.trajectory().values, (std::vector<double>{70.0, 20.0, 90.0}));
}

TEST(TrajectoryRecorder, RecordedConfigurationsAreNotResimulated) {
  std::vector<d::Config> simulated;
  d::TrajectoryRecorder rec([&](const d::Config& c) {
    simulated.push_back(c);
    return 10.0 * c[0];
  });
  const d::BatchEvaluateFn evaluate = rec.evaluator();
  (void)evaluate({{1}, {2}});
  // Values follow candidate order whether served from the record or new.
  EXPECT_EQ(evaluate({{2}, {3}, {1}}),
            (std::vector<double>{20.0, 30.0, 10.0}));
  EXPECT_EQ(simulated, (std::vector<d::Config>{{1}, {2}, {3}}));
  EXPECT_EQ(rec.trajectory().configs, simulated);
  EXPECT_TRUE(evaluate({}).empty());
  EXPECT_EQ(rec.unique_evaluations(), 3u);
}

/// A pure simulator whose calls take uneven time, so pooled calls finish
/// out of candidate order.
double uneven(const d::Config& c) {
  std::this_thread::sleep_for(std::chrono::microseconds(50 * (c[0] % 4)));
  return std::sin(0.7 * c[0]) + 0.01 * c[1];
}

TEST(TrajectoryRecorder, PooledRunRecordsTheSameTrajectoryBytes) {
  d::MinPlusOneOptions o;
  o.nv = 2;
  o.w_max = 12;
  o.w_min = 2;
  o.lambda_min = 0.9;
  const auto run = [&](ace::util::ThreadPool* pool) {
    d::TrajectoryRecorder rec(uneven);
    const d::BatchEvaluateFn evaluate = rec.evaluator(pool);
    // A whole batch of fresh candidates, one with a recorded twin, then a
    // min+1 run that revisits recorded configurations.
    (void)evaluate({{9, 1}, {3, 3}, {6, 2}, {3, 3}, {12, 12}});
    (void)d::min_plus_one(evaluate, o);
    return rec.trajectory();
  };
  const d::Trajectory serial = run(nullptr);
  ace::util::ThreadPool pool(3);
  const d::Trajectory pooled = run(&pool);
  EXPECT_GT(serial.size(), 5u);
  EXPECT_EQ(pooled.configs, serial.configs);
  ASSERT_EQ(pooled.values.size(), serial.values.size());
  for (std::size_t i = 0; i < serial.size(); ++i)
    EXPECT_EQ(std::bit_cast<std::uint64_t>(pooled.values[i]),
              std::bit_cast<std::uint64_t>(serial.values[i]))
        << "entry " << i;
}

TEST(TrajectoryRecorder, LowestIndexFailureIsRethrown) {
  const auto broken = [](const d::Config& c) -> double {
    if (c[0] == 4 || c[0] == 6)
      throw std::runtime_error("broken " + std::to_string(c[0]));
    return c[0];
  };
  ace::util::ThreadPool pool(3);
  for (ace::util::ThreadPool* p : {static_cast<ace::util::ThreadPool*>(nullptr),
                                   &pool}) {
    d::TrajectoryRecorder rec(broken);
    const d::BatchEvaluateFn evaluate = rec.evaluator(p);
    (void)evaluate({{2}});
    try {
      (void)evaluate({{1}, {2}, {6}, {3}, {4}});
      ADD_FAILURE() << "no failure rethrown";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "broken 6");
    }
    // The record holds what a serial run held when candidate {6} threw.
    EXPECT_EQ(rec.trajectory().configs, (std::vector<d::Config>{{2}, {1}}));
    EXPECT_EQ(evaluate({{3}, {1}}), (std::vector<double>{3.0, 1.0}));
    EXPECT_EQ(rec.trajectory().configs,
              (std::vector<d::Config>{{2}, {1}, {3}}));
  }
}

TEST(InterpolationEpsilon, AccuracyDbUsesEquation11) {
  // λ = −P_dB. True P = 1e-5 → λ = 50. Estimate λ̂ = 47 → P̂ = 10^(−4.7);
  // ε = |log2(P̂/P)| = |(−47 + 50)/10 · log2(10)| ≈ 0.9966.
  const double eps = d::interpolation_epsilon(47.0, 50.0,
                                              d::MetricKind::kAccuracyDb);
  EXPECT_NEAR(eps, 3.0 / 10.0 * std::log2(10.0), 1e-9);
  // Exact estimate: zero error.
  EXPECT_DOUBLE_EQ(
      d::interpolation_epsilon(50.0, 50.0, d::MetricKind::kAccuracyDb), 0.0);
  // Eq. 11 as a power ratio: P̂ = 4·P is |log2 4| = 2 equivalent bits,
  // whichever side is the estimate.
  const double lambda_4 = -10.0 * std::log10(4.0e-6);
  const double lambda_1 = -10.0 * std::log10(1.0e-6);
  EXPECT_NEAR(d::interpolation_epsilon(lambda_4, lambda_1,
                                       d::MetricKind::kAccuracyDb),
              2.0, 1e-12);
  EXPECT_NEAR(d::interpolation_epsilon(lambda_1, lambda_4,
                                       d::MetricKind::kAccuracyDb),
              2.0, 1e-12);
}

TEST(InterpolationEpsilon, AccuracyDbMatchesLog2OfPowerRatio) {
  // Across random power pairs, the dB-domain form equals Eq. 11 evaluated
  // on linear powers: ε = |log2(P̂/P)| with λ = −10·log10(P).
  ace::util::Rng rng(111);
  for (int i = 0; i < 200; ++i) {
    const double p_hat = std::pow(10.0, rng.uniform(-12.0, -1.0));
    const double p = std::pow(10.0, rng.uniform(-12.0, -1.0));
    const double eps = d::interpolation_epsilon(-10.0 * std::log10(p_hat),
                                                -10.0 * std::log10(p),
                                                d::MetricKind::kAccuracyDb);
    EXPECT_NEAR(eps, std::abs(std::log2(p_hat / p)), 1e-9);
  }
}

TEST(InterpolationEpsilon, AccuracyDbDependsOnlyOnTheGap) {
  // Symmetric in estimate and truth, and unchanged when both shift by the
  // same number of dB: only the power ratio matters.
  for (const double gap : {0.5, 3.0, 17.0}) {
    const double base = d::interpolation_epsilon(40.0 + gap, 40.0,
                                                 d::MetricKind::kAccuracyDb);
    EXPECT_DOUBLE_EQ(d::interpolation_epsilon(40.0, 40.0 + gap,
                                              d::MetricKind::kAccuracyDb),
                     base);
    EXPECT_NEAR(d::interpolation_epsilon(95.0 + gap, 95.0,
                                         d::MetricKind::kAccuracyDb),
                base, 1e-12);
  }
}

TEST(InterpolationEpsilon, QualityRateUsesEquation12) {
  EXPECT_DOUBLE_EQ(
      d::interpolation_epsilon(0.81, 0.9, d::MetricKind::kQualityRate), 0.1);
  EXPECT_DOUBLE_EQ(
      d::interpolation_epsilon(0.99, 0.9, d::MetricKind::kQualityRate), 0.1);
}

d::Trajectory line_trajectory(int n) {
  // 1-D walk over a smooth dB-accuracy curve λ(x) = 3x + 10.
  d::Trajectory t;
  for (int i = 0; i < n; ++i) {
    t.configs.push_back({i});
    t.values.push_back(3.0 * i + 10.0);
  }
  return t;
}

TEST(Replay, RaggedTrajectoryThrows) {
  d::Trajectory bad;
  bad.configs.push_back({1});
  EXPECT_THROW(
      (void)d::replay_with_kriging(bad, {}, d::MetricKind::kAccuracyDb),
      std::invalid_argument);
}

TEST(Replay, InterpolatesTailOfDenseTrajectory) {
  const auto t = line_trajectory(30);
  d::PolicyOptions options;
  options.distance = 3;
  options.min_fit_points = 8;
  const auto report =
      d::replay_with_kriging(t, options, d::MetricKind::kAccuracyDb);
  EXPECT_EQ(report.records.size(), 30u);
  EXPECT_GT(report.stats.interpolated, 0u);
  EXPECT_EQ(report.stats.total, 30u);
  EXPECT_EQ(report.stats.simulated + report.stats.interpolated, 30u);
  // Linear λ: interpolation should be extremely accurate (sub-0.2 bit).
  EXPECT_LT(report.mean_epsilon(), 0.2);
  EXPECT_GE(report.max_epsilon(), report.mean_epsilon());
  EXPECT_GT(report.interpolated_fraction(), 0.3);
  EXPECT_GT(report.mean_neighbors(), 1.0);
}

TEST(Replay, SimulatedRecordsCarryTrueValues) {
  const auto t = line_trajectory(12);
  d::PolicyOptions options;
  options.distance = 2;
  options.min_fit_points = 6;
  const auto report =
      d::replay_with_kriging(t, options, d::MetricKind::kAccuracyDb);
  for (const auto& r : report.records) {
    EXPECT_DOUBLE_EQ(r.true_value, t.values[r.index]);
    if (!r.interpolated) {
      EXPECT_DOUBLE_EQ(r.estimate, r.true_value);
      EXPECT_DOUBLE_EQ(r.epsilon, 0.0);
    }
  }
}

TEST(Replay, LargerDistanceInterpolatesMore) {
  const auto t = line_trajectory(40);
  auto fraction_at = [&](int dist) {
    d::PolicyOptions options;
    options.distance = dist;
    options.min_fit_points = 8;
    return d::replay_with_kriging(t, options, d::MetricKind::kAccuracyDb)
        .interpolated_fraction();
  };
  EXPECT_LE(fraction_at(1), fraction_at(3));
  EXPECT_LE(fraction_at(3), fraction_at(6));
}

TEST(Replay, DeterministicAcrossRuns) {
  const auto t = line_trajectory(25);
  d::PolicyOptions options;
  options.distance = 3;
  options.min_fit_points = 8;
  const auto a =
      d::replay_with_kriging(t, options, d::MetricKind::kAccuracyDb);
  const auto b =
      d::replay_with_kriging(t, options, d::MetricKind::kAccuracyDb);
  ASSERT_EQ(a.records.size(), b.records.size());
  for (std::size_t i = 0; i < a.records.size(); ++i) {
    EXPECT_EQ(a.records[i].interpolated, b.records[i].interpolated);
    EXPECT_DOUBLE_EQ(a.records[i].estimate, b.records[i].estimate);
  }
}

TEST(Replay, EmptyTrajectoryYieldsEmptyReport) {
  const d::Trajectory empty;
  const auto report =
      d::replay_with_kriging(empty, {}, d::MetricKind::kAccuracyDb);
  EXPECT_TRUE(report.records.empty());
  EXPECT_DOUBLE_EQ(report.max_epsilon(), 0.0);
  EXPECT_DOUBLE_EQ(report.mean_epsilon(), 0.0);
}

}  // namespace
