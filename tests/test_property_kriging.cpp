// Property-based sweeps over the kriging estimator: invariants that must
// hold for arbitrary support sets, dimensions and variogram models.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>
#include <vector>

#include "kriging/system.hpp"
#include "kriging/variogram_model.hpp"
#include "util/rng.hpp"

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

struct Scenario {
  std::size_t dimension;
  std::size_t support_size;
  std::uint64_t seed;
};

std::unique_ptr<k::VariogramModel> model_for(int which) {
  switch (which % 4) {
    case 0: return std::make_unique<k::LinearVariogram>(0.0, 1.0);
    case 1: return std::make_unique<k::SphericalVariogram>(0.0, 2.0, 8.0);
    case 2: return std::make_unique<k::ExponentialVariogram>(0.0, 1.5, 6.0);
    default: return std::make_unique<k::PowerVariogram>(0.0, 1.0, 1.2);
  }
}

/// Distinct random integer-lattice support points plus a query.
struct Instance {
  std::vector<std::vector<double>> points;
  std::vector<double> values;
  std::vector<double> query;
};

Instance make_instance(const Scenario& s) {
  ace::util::Rng rng(s.seed);
  Instance inst;
  while (inst.points.size() < s.support_size) {
    std::vector<double> p(s.dimension);
    for (auto& x : p) x = rng.uniform_int(0, 8);
    if (std::find(inst.points.begin(), inst.points.end(), p) ==
        inst.points.end())
      inst.points.push_back(std::move(p));
  }
  for (std::size_t i = 0; i < s.support_size; ++i)
    inst.values.push_back(rng.uniform(-10.0, 10.0));
  inst.query.resize(s.dimension);
  for (auto& x : inst.query) x = rng.uniform_int(0, 8) + 0.0;
  return inst;
}

class KrigingInvariantTest : public ::testing::TestWithParam<Scenario> {};

TEST_P(KrigingInvariantTest, WeightsSumToOneForAllModels) {
  const auto inst = make_instance(GetParam());
  for (int which = 0; which < 4; ++which) {
    const auto model = model_for(which);
    const auto r = one_shot(inst.points, inst.values, inst.query, *model);
    if (!r) continue;  // Degenerate geometry: fallback is allowed.
    double sum = 0.0;
    for (double w : r->weights) sum += w;
    EXPECT_NEAR(sum, 1.0, 1e-6) << "model " << model->name();
  }
}

TEST_P(KrigingInvariantTest, ExactAtEverySupportPoint) {
  const auto inst = make_instance(GetParam());
  const auto model = model_for(static_cast<int>(GetParam().seed));
  for (std::size_t i = 0; i < inst.points.size(); ++i) {
    const auto r = one_shot(inst.points, inst.values, inst.points[i], *model);
    ASSERT_TRUE(r.has_value());
    if (r->regularized) continue;  // Ridge trades exactness for solvability.
    EXPECT_NEAR(r->estimate, inst.values[i], 1e-6)
        << "support point " << i << " model " << model->name();
  }
}

TEST_P(KrigingInvariantTest, TranslationInvarianceInValues) {
  // Kriging is linear in λ: shifting all values by c shifts the estimate
  // by c.
  const auto inst = make_instance(GetParam());
  const auto model = model_for(1);
  const auto base = one_shot(inst.points, inst.values, inst.query, *model);
  auto shifted = inst.values;
  for (double& v : shifted) v += 100.0;
  const auto moved = one_shot(inst.points, shifted, inst.query, *model);
  if (!base || !moved) GTEST_SKIP();
  EXPECT_NEAR(moved->estimate, base->estimate + 100.0, 1e-5);
}

TEST_P(KrigingInvariantTest, ScaleEquivarianceInValues) {
  const auto inst = make_instance(GetParam());
  const auto model = model_for(2);
  const auto base = one_shot(inst.points, inst.values, inst.query, *model);
  auto scaled = inst.values;
  for (double& v : scaled) v *= -3.0;
  const auto moved = one_shot(inst.points, scaled, inst.query, *model);
  if (!base || !moved) GTEST_SKIP();
  // Weights depend only on geometry; the estimate is Σ w λ, hence scales.
  EXPECT_NEAR(moved->estimate, -3.0 * base->estimate, 1e-5);
}

TEST_P(KrigingInvariantTest, AffineFieldsAreReproducedNearSupport) {
  // For λ(x) = a + b·Σx_i sampled on the lattice, ordinary kriging with a
  // linear variogram reproduces the affine field well inside the hull.
  const auto param = GetParam();
  if (param.support_size < 4) GTEST_SKIP();
  ace::util::Rng rng(param.seed * 31 + 7);
  auto inst = make_instance(param);
  const double a = rng.uniform(-2.0, 2.0);
  const double b = rng.uniform(0.5, 1.5);
  auto affine = [&](const std::vector<double>& p) {
    double s = 0.0;
    for (double x : p) s += x;
    return a + b * s;
  };
  for (std::size_t i = 0; i < inst.points.size(); ++i)
    inst.values[i] = affine(inst.points[i]);
  const k::LinearVariogram model(0.0, 1.0);
  const auto r = one_shot(inst.points, inst.values, inst.query, model);
  if (!r || r->regularized) GTEST_SKIP();
  // 1-D affine reproduction is exact; in higher dimensions under L1
  // geometry it is near-exact within the sampled box.
  const double truth = affine(inst.query);
  const double span = 8.0 * b * static_cast<double>(param.dimension);
  EXPECT_NEAR(r->estimate, truth, 0.15 * span + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, KrigingInvariantTest,
    ::testing::Values(Scenario{1, 2, 11}, Scenario{1, 4, 12},
                      Scenario{1, 6, 13}, Scenario{2, 3, 21},
                      Scenario{2, 5, 22}, Scenario{2, 8, 23},
                      Scenario{3, 4, 31}, Scenario{3, 7, 32},
                      Scenario{5, 6, 51}, Scenario{5, 10, 52},
                      Scenario{10, 5, 101}, Scenario{10, 12, 102},
                      Scenario{23, 8, 231}, Scenario{23, 16, 232}));

}  // namespace
