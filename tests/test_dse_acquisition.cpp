// The pluggable acquisition layer: gate semantics in isolation, make_gate's
// option mapping, and the policy-level wiring — LOO calibration after
// refits, per-gate counters, and the restore-replay reconstruction of gate
// state.
#include "dse/acquisition.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "dse/kriging_policy.hpp"

namespace {

namespace d = ace::dse;

d::GateSolution solution(double estimate, double variance, double sill) {
  d::GateSolution s;
  s.estimate = estimate;
  s.variance = variance;
  s.sill = sill;
  return s;
}

d::LooSummary summary(std::size_t count, double mean_abs, double mean_sq) {
  d::LooSummary s;
  s.count = count;
  s.mean_abs_residual = mean_abs;
  s.mean_sq_standardized = mean_sq;
  return s;
}

TEST(AcquisitionGate, NamesAreStable) {
  EXPECT_STREQ(d::gate_name(d::GateKind::kNeighbourCount), "neighbour-count");
  EXPECT_STREQ(d::gate_name(d::GateKind::kVariance), "variance");
  EXPECT_STREQ(d::gate_name(d::GateKind::kLooCalibrated), "loo-calibrated");
  EXPECT_STREQ(d::gate_name(d::GateKind::kSequentialDesign),
               "sequential-design");
}

TEST(AcquisitionGate, NeighbourCountGateReproducesThePaperRule) {
  d::PolicyOptions o;
  o.nn_min = 2;
  const auto gate = d::make_gate(o);
  ASSERT_EQ(gate->kind(), d::GateKind::kNeighbourCount);
  EXPECT_FALSE(gate->wants_loo());
  EXPECT_DOUBLE_EQ(gate->calibration(), 1.0);
  // The paper's strict `count > nn_min` test, nothing else.
  EXPECT_FALSE(gate->attempt({2}));
  EXPECT_TRUE(gate->attempt({3}));
  d::PolicyStats stats;
  EXPECT_TRUE(gate->accept(solution(0.0, 1e9, 1.0), stats));
  EXPECT_EQ(stats.variance_rejections, 0u);
}

TEST(AcquisitionGate, ExplicitVarianceGateDefaultsItsCeiling) {
  d::PolicyOptions o;
  o.gate = d::GateKind::kVariance;  // variance_gate left at its default.
  const auto gate = d::make_gate(o);
  ASSERT_EQ(gate->kind(), d::GateKind::kVariance);
  d::PolicyStats stats;
  EXPECT_TRUE(gate->accept(solution(0.0, 0.9, 1.0), stats));
  EXPECT_FALSE(gate->accept(solution(0.0, 1.1, 1.0), stats));
}

TEST(AcquisitionGate, VarianceGateRejectsAboveItsCeilingTimesTheSill) {
  d::PolicyOptions o;
  o.gate = d::GateKind::kVariance;
  o.variance_gate = 0.5;
  const auto gate = d::make_gate(o);
  d::PolicyStats stats;
  // Reject when variance > ceiling · sill, only once the sill is known.
  EXPECT_TRUE(gate->accept(solution(0.0, 0.5, 1.0), stats));
  EXPECT_FALSE(gate->accept(solution(0.0, 0.51, 1.0), stats));
  EXPECT_EQ(stats.variance_rejections, 1u);
  EXPECT_TRUE(gate->accept(solution(0.0, 100.0, 0.0), stats));  // No sill.
  EXPECT_EQ(stats.variance_rejections, 1u);
}

TEST(AcquisitionGate, VarianceCeilingOnlyConfiguresTheVarianceGate) {
  // variance_gate is one gate's knob: setting it never changes which
  // gate the options select.
  d::PolicyOptions o;
  o.variance_gate = 0.5;
  const auto gate = d::make_gate(o);
  ASSERT_EQ(gate->kind(), d::GateKind::kNeighbourCount);
  d::PolicyStats stats;
  EXPECT_TRUE(gate->accept(solution(0.0, 1e9, 1.0), stats));
  EXPECT_EQ(stats.variance_rejections, 0u);
}

TEST(AcquisitionGate, LooCalibratedGateScalesVarianceByCalibration) {
  d::PolicyOptions o;
  o.gate = d::GateKind::kLooCalibrated;
  const auto gate = d::make_gate(o);
  ASSERT_EQ(gate->kind(), d::GateKind::kLooCalibrated);
  EXPECT_TRUE(gate->wants_loo());
  // The floor is inclusive — variance evidence, not point count, vetoes.
  EXPECT_FALSE(gate->attempt({0}));
  EXPECT_TRUE(gate->attempt({1}));
  d::PolicyStats stats;
  // Uncalibrated (c = 1): plain variance ceiling.
  EXPECT_TRUE(gate->accept(solution(0.0, 0.9, 1.0), stats));
  EXPECT_FALSE(gate->accept(solution(0.0, 1.1, 1.0), stats));
  EXPECT_EQ(stats.loo_rejections, 1u);
  EXPECT_EQ(stats.variance_rejections, 0u);
  // An overconfident model (mean e²/σ² = 4) halves the tolerated variance
  // twice over: 0.3 · 4 > 1.0 now rejects.
  gate->calibrate(summary(8, 0.5, 4.0));
  EXPECT_DOUBLE_EQ(gate->calibration(), 4.0);
  EXPECT_FALSE(gate->accept(solution(0.0, 0.3, 1.0), stats));
  EXPECT_TRUE(gate->accept(solution(0.0, 0.2, 1.0), stats));
  // Degenerate passes are ignored; extreme ones are clamped.
  gate->calibrate(summary(0, 0.0, 100.0));
  EXPECT_DOUBLE_EQ(gate->calibration(), 4.0);
  gate->calibrate(summary(4, 0.1, 1e9));
  EXPECT_DOUBLE_EQ(gate->calibration(), 1e4);
  gate->calibrate(summary(4, 0.1, 1e-9));
  EXPECT_DOUBLE_EQ(gate->calibration(), 1e-2);
}

TEST(AcquisitionGate, SequentialDesignGateProtectsTheDecisionThreshold) {
  d::PolicyOptions o;
  o.gate = d::GateKind::kSequentialDesign;
  EXPECT_THROW(d::make_gate(o), std::invalid_argument);
  o.gate_lambda_min = 0.9;
  const auto gate = d::make_gate(o);
  ASSERT_EQ(gate->kind(), d::GateKind::kSequentialDesign);
  EXPECT_TRUE(gate->wants_loo());
  d::PolicyStats stats;
  // σ = 0.1, z = 2: trust the interpolation only 0.2 away from λ_min.
  EXPECT_FALSE(gate->accept(solution(1.0, 0.01, 1.0), stats));
  EXPECT_EQ(stats.sequential_rejections, 1u);
  EXPECT_TRUE(gate->accept(solution(1.2, 0.01, 1.0), stats));
  EXPECT_TRUE(gate->accept(solution(0.5, 0.01, 1.0), stats));
  // Calibration inflates σ: c = 4 doubles the protected band.
  gate->calibrate(summary(8, 0.5, 4.0));
  EXPECT_FALSE(gate->accept(solution(1.2, 0.01, 1.0), stats));
  EXPECT_EQ(stats.sequential_rejections, 2u);
}

TEST(AcquisitionGate, PolicyValidatesGateOptions) {
  d::PolicyOptions o;
  o.gate = d::GateKind::kSequentialDesign;  // Missing gate_lambda_min.
  EXPECT_THROW(d::KrigingPolicy{o}, std::invalid_argument);
}

/// Mildly curved 2-D surface so kriging residuals are non-trivial and the
/// LOO pass has something to calibrate on.
double surface(const d::Config& c) {
  const double x = static_cast<double>(c[0]);
  const double y = static_cast<double>(c[1]);
  return -(x + 2.0 * y) + 0.05 * x * y;
}

d::PolicyOptions loo_policy_options() {
  d::PolicyOptions o;
  o.distance = 3;
  o.min_fit_points = 6;
  o.refit_period = 4;
  o.gate = d::GateKind::kLooCalibrated;
  return o;
}

std::vector<d::Config> seed_grid() {
  std::vector<d::Config> grid;
  for (int x = 0; x <= 4; ++x)
    for (int y = 0; y <= 4; ++y)
      if ((x + y) % 2 == 0) grid.push_back({x, y});
  return grid;
}

TEST(AcquisitionGate, PolicyRunsLooCalibrationAtRefits) {
  d::KrigingPolicy policy(loo_policy_options());
  EXPECT_EQ(policy.gate_kind(), d::GateKind::kLooCalibrated);
  EXPECT_DOUBLE_EQ(policy.gate_calibration(), 1.0);
  auto sim = [](const d::Config& c) { return surface(c); };
  for (const auto& c : seed_grid()) (void)policy.evaluate(c, sim);
  const auto seeded = policy.stats();
  ASSERT_GT(seeded.refits, 0u);
  EXPECT_GT(seeded.loo_passes, 0u);
  EXPECT_GT(seeded.loo_abs_error.count(), 0u);
  // A refit over the full seeded store yields a non-degenerate LOO pass
  // (the very first fit, at min_fit_points support, can produce a
  // variogram whose LOO variances all clamp to zero — that pass is
  // deliberately ignored by calibrate()).
  ASSERT_TRUE(policy.refit_model());
  const auto stats = policy.stats();
  EXPECT_GT(stats.loo_passes, seeded.loo_passes);
  EXPECT_NE(policy.gate_calibration(), 1.0);
}

TEST(AcquisitionGate, DefaultGatePaysNoLooCost) {
  d::PolicyOptions o;
  o.distance = 3;
  o.min_fit_points = 6;
  o.refit_period = 4;
  d::KrigingPolicy policy(o);
  auto sim = [](const d::Config& c) { return surface(c); };
  for (const auto& c : seed_grid()) (void)policy.evaluate(c, sim);
  const auto stats = policy.stats();
  ASSERT_GT(stats.refits, 0u);
  EXPECT_EQ(stats.loo_passes, 0u);
  EXPECT_EQ(stats.loo_abs_error.count(), 0u);
}

TEST(AcquisitionGate, RestoreReplayReconstructsGateCalibration) {
  d::KrigingPolicy policy(loo_policy_options());
  auto sim = [](const d::Config& c) { return surface(c); };
  for (const auto& c : seed_grid()) (void)policy.evaluate(c, sim);
  ASSERT_GT(policy.stats().loo_passes, 0u);

  d::KrigingPolicy resumed(loo_policy_options());
  resumed.restore(policy.snapshot());
  // Replayed refits re-run the identical LOO passes: calibration state and
  // every stats field (counters and RunningStats moments alike) coincide.
  EXPECT_EQ(resumed.gate_calibration(), policy.gate_calibration());
  EXPECT_EQ(resumed.stats(), policy.stats());

  // And the resumed policy keeps deciding identically.
  d::KrigingPolicy reference(loo_policy_options());
  d::KrigingPolicy restored(loo_policy_options());
  restored.restore(policy.snapshot());
  for (const auto& c : seed_grid()) (void)reference.evaluate(c, sim);
  const d::Config probe{1, 2};
  const auto a = reference.evaluate(probe, sim);
  const auto b = restored.evaluate(probe, sim);
  EXPECT_EQ(a, b);
}

TEST(AcquisitionGate, SequentialGateSavesSimulationsFarFromTheThreshold) {
  // On a surface far below λ_min everywhere, the sequential gate trusts
  // sparse interpolations the paper's nn_min rule would simulate.
  d::PolicyOptions base;
  base.distance = 3;
  base.min_fit_points = 6;
  base.refit_period = 4;
  base.nn_min = 3;

  d::PolicyOptions seq = base;
  seq.gate = d::GateKind::kSequentialDesign;
  seq.gate_lambda_min = 1e6;  // Verdict beyond doubt everywhere.

  auto sim = [](const d::Config& c) { return surface(c); };
  d::KrigingPolicy paper(base);
  d::KrigingPolicy sequential(seq);
  for (const auto& c : seed_grid()) {
    (void)paper.evaluate(c, sim);
    (void)sequential.evaluate(c, sim);
  }
  std::vector<d::Config> probes;
  for (int x = 0; x <= 4; ++x)
    for (int y = 0; y <= 4; ++y)
      if ((x + y) % 2 == 1) probes.push_back({x, y});
  for (const auto& c : probes) {
    (void)paper.evaluate(c, sim);
    (void)sequential.evaluate(c, sim);
  }
  EXPECT_LT(sequential.stats().simulated, paper.stats().simulated);
}

}  // namespace
