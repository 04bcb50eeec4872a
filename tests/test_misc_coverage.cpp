// Edge-path coverage across modules: fitter knobs, variogram binning with
// non-integer distances, scheduler tie-breaking, cross-module annealing
// through the kriging engine, and adaptive-sampling batch control.
#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "core/engine.hpp"
#include "dse/adaptive_simulation.hpp"
#include "dse/annealing.hpp"
#include "dse/scheduler.hpp"
#include "kriging/empirical_variogram.hpp"
#include "kriging/fit.hpp"
#include "util/rng.hpp"

namespace {

namespace k = ace::kriging;
namespace d = ace::dse;

TEST(FitOptions, RestrictedFamilyListIsHonoured) {
  std::vector<std::vector<double>> pts;
  std::vector<double> vals;
  for (int i = 0; i < 12; ++i) {
    pts.push_back({static_cast<double>(i)});
    vals.push_back(0.5 * i);
  }
  const k::EmpiricalVariogram ev(pts, vals);
  k::FitOptions options;
  options.families = {k::ModelFamily::kSpherical};
  const auto all = k::fit_all(ev, options);
  ASSERT_EQ(all.size(), 1u);
  EXPECT_EQ(all[0].family, k::ModelFamily::kSpherical);
  const auto best = k::fit_best(ev, options);
  EXPECT_EQ(best.family, k::ModelFamily::kSpherical);
}

TEST(FitOptions, TinyRangeGridStillFits) {
  std::vector<std::vector<double>> pts;
  std::vector<double> vals;
  ace::util::Rng rng(200);
  double acc = 0.0;
  for (int i = 0; i < 20; ++i) {
    pts.push_back({static_cast<double>(i)});
    acc = 0.6 * acc + rng.normal(0.0, 1.0);
    vals.push_back(acc);
  }
  const k::EmpiricalVariogram ev(pts, vals);
  k::FitOptions options;
  options.range_grid = 1;  // Clamped up internally to >= 2.
  const auto fit = k::fit_family(ev, k::ModelFamily::kExponential, options);
  ASSERT_NE(fit.model, nullptr);
  EXPECT_GE(fit.weighted_sse, 0.0);
}

TEST(EmpiricalVariogram, FractionalDistancesBinByWidth) {
  // Quarter-step coordinates off the lattice give fractional L1
  // distances; bin width 0.5 groups them deterministically.
  const std::vector<std::vector<double>> pts = {
      {0.0, 0.0}, {1.0, 0.0}, {0.5, 0.75}, {1.5, 0.75}};
  const std::vector<double> vals = {0.0, 1.0, 1.5, 2.5};
  const k::EmpiricalVariogram ev(pts, vals, k::l1_distance, 0.5);
  EXPECT_EQ(ev.total_pairs(), 6u);
  // Distances: {1 ×2, 1.25 ×3, 2.25 ×1}; width 0.5 puts 1 and 1.25 in the
  // same bin [1.0, 1.5) and 2.25 alone in [2.0, 2.5).
  ASSERT_EQ(ev.bins().size(), 2u);
  EXPECT_EQ(ev.bins()[0].pair_count, 5u);
  EXPECT_EQ(ev.bins()[1].pair_count, 1u);
  std::size_t total = 0;
  for (const auto& bin : ev.bins()) total += bin.pair_count;
  EXPECT_EQ(total, 6u);
  EXPECT_NEAR(ev.max_distance(), 2.25, 1e-12);
}

TEST(MaximinOrder, DeterministicTieBreaking) {
  // A symmetric square has many maximin ties; ordering must still be
  // reproducible call to call.
  std::vector<d::Config> batch = {{0, 0}, {0, 4}, {4, 0}, {4, 4}, {2, 2}};
  const auto a = d::maximin_order(batch);
  const auto b = d::maximin_order(batch);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a[0], (d::Config{2, 2}));  // Medoid first.
}

TEST(Annealing, RunsThroughKrigingEngine) {
  // Cross-module smoke: annealing driven by kriged evaluations converges
  // to a feasible solution on a smooth surface.
  auto surface = [](const d::Config& c) {
    double acc = 0.0;
    for (int v : c) acc += 5.0 * v;
    return acc;
  };
  d::PolicyOptions policy;
  policy.distance = 2;
  ace::core::ErrorEvaluationEngine engine(surface, policy,
                                          d::MetricKind::kAccuracyDb);
  const d::Lattice lattice(3, 2, 16);
  d::AnnealingOptions options;
  options.lambda_min = 120.0;
  options.iterations = 2500;
  options.seed = 77;
  const auto result =
      d::simulated_annealing(engine.as_evaluator(), lattice, options);
  EXPECT_TRUE(result.feasible);
  // Exact check of the returned solution.
  EXPECT_GE(surface(result.best), 120.0 - 15.0);
  EXPECT_GT(engine.stats().interpolated, 0u);
}

TEST(AdaptiveMean, MinBatchesDelaysTheStoppingTest) {
  // Constant data converges at exactly min_batches · batch observations.
  for (const std::size_t min_batches : {1u, 3u, 5u}) {
    d::AdaptiveSimOptions options;
    options.batch = 10;
    options.min_batches = min_batches;
    const auto r =
        d::adaptive_mean([](std::size_t) { return 1.0; }, 1000, options);
    EXPECT_TRUE(r.converged);
    EXPECT_EQ(r.observations, 10u * min_batches);
  }
}

TEST(Engine, SensitivityFlowKeepsQualityMetricConsistent) {
  auto quality = [](const d::Config& levels) {
    double damage = 0.0;
    for (int e : levels) damage += 0.4 * std::ldexp(1.0, -e);
    return 1.0 - damage;
  };
  ace::core::ErrorEvaluationEngine engine(quality, {},
                                          d::MetricKind::kQualityRate);
  EXPECT_EQ(engine.metric_kind(), d::MetricKind::kQualityRate);
  d::SensitivityOptions options;
  options.nv = 2;
  options.level_max = 10;
  options.lambda_min = 0.9;
  const auto result = engine.analyze_sensitivity(options);
  EXPECT_TRUE(result.feasible);
  EXPECT_GE(quality(result.levels), 0.85);
}

}  // namespace
