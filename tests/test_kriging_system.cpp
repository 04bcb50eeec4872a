// KrigingSystem: the ordinary-kriging assembly/solve workspace. The
// property at stake: a workspace reloaded with support set after support
// set answers bit-identically to an independently assembled system solved
// by linalg::robust_solve — estimate, variance, weights, ridge and rcond —
// across coincident support, ridge-forcing supports, a large support
// followed by smaller ones (stale buffer contents must not leak), and
// loo_residuals() after a reload. The system's metric is L1,
// fixed by the L1Distance type.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <type_traits>
#include <vector>

#include "kriging/empirical_variogram.hpp"
#include "kriging/system.hpp"
#include "kriging/variogram_model.hpp"
#include "linalg/lu_decomposition.hpp"
#include "linalg/matrix.hpp"
#include "linalg/solve.hpp"
#include "linalg/vector.hpp"
#include "util/rng.hpp"

namespace {

namespace k = ace::kriging;
namespace la = ace::linalg;

struct Instance {
  std::vector<std::vector<double>> points;
  std::vector<double> values;
  std::vector<double> query;
};

Instance make_instance(std::size_t dim, std::size_t n, std::uint64_t seed) {
  ace::util::Rng rng(seed);
  Instance inst;
  while (inst.points.size() < n) {
    std::vector<double> p(dim);
    for (auto& x : p) x = rng.uniform_int(0, 9);
    if (std::find(inst.points.begin(), inst.points.end(), p) ==
        inst.points.end())
      inst.points.push_back(std::move(p));
  }
  for (std::size_t i = 0; i < n; ++i)
    inst.values.push_back(rng.uniform(-10.0, 10.0));
  inst.query.resize(dim);
  for (auto& x : inst.query) x = rng.uniform(0.0, 9.0);
  return inst;
}

std::vector<k::SystemSpec> all_specs() {
  k::SystemSpec ordinary{k::SystemKind::kOrdinary};
  return {ordinary};
}

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

/// Bitwise equality of two solve outcomes.
void expect_identical(const std::optional<k::KrigingResult>& got,
                      const std::optional<k::KrigingResult>& want) {
  ASSERT_EQ(got.has_value(), want.has_value());
  if (!got) return;
  EXPECT_EQ(bits(got->estimate), bits(want->estimate));
  EXPECT_EQ(bits(got->variance), bits(want->variance));
  EXPECT_EQ(got->regularized, want->regularized);
  EXPECT_EQ(bits(got->ridge), bits(want->ridge));
  EXPECT_EQ(bits(got->rcond), bits(want->rcond));
  ASSERT_EQ(got->weights.size(), want->weights.size());
  for (std::size_t i = 0; i < got->weights.size(); ++i)
    EXPECT_EQ(bits(got->weights[i]), bits(want->weights[i])) << "weight " << i;
}

/// A system assembled independently of KrigingSystem, in the documented
/// entry order: Γ over the deduplicated support, the ones-border, and the
/// query right-hand side.
struct ReferenceSystem {
  std::vector<std::vector<double>> points;  ///< Unique support.
  std::vector<double> values;
  std::vector<std::optional<std::size_t>> owner;  ///< Slot -> unique index.
  std::size_t border = 0;
  la::Matrix a;
  la::Vector rhs;
};

ReferenceSystem assemble_reference(
    const std::vector<std::vector<double>>& points,
    const std::vector<double>& values, const std::vector<double>& q,
    const k::VariogramModel& model) {
  ReferenceSystem r;
  for (std::size_t s = 0; s < points.size(); ++s) {
    if (std::find(r.points.begin(), r.points.end(), points[s]) !=
        r.points.end()) {
      r.owner.push_back(std::nullopt);
      continue;
    }
    r.owner.push_back(r.points.size());
    r.points.push_back(points[s]);
    r.values.push_back(values[s]);
  }
  const std::size_t n = r.points.size();
  r.border = 1;
  const std::size_t m = n + r.border;
  r.a = la::Matrix(m, m);
  r.rhs = la::Vector(m);
  for (std::size_t j = 0; j < n; ++j) {
    r.a(j, j) = model.gamma(0.0) + 0.0;  // The direct path's zero shift.
    for (std::size_t c = j + 1; c < n; ++c) {
      const double g = model.gamma(k::l1_distance(r.points[j], r.points[c]));
      r.a(j, c) = g;
      r.a(c, j) = g;
    }
    r.a(j, n) = 1.0;
    r.a(n, j) = 1.0;
    r.rhs[j] = model.gamma(k::l1_distance(q, r.points[j]));
  }
  r.rhs[n] = 1.0;
  return r;
}

/// The oracle: the reference system solved by linalg::robust_solve, with
/// the estimate and variance summed in support order.
std::optional<k::KrigingResult> reference_solve(
    const std::vector<std::vector<double>>& points,
    const std::vector<double>& values, const std::vector<double>& q,
    const k::VariogramModel& model) {
  const ReferenceSystem r = assemble_reference(points, values, q, model);
  la::SolveReport report;
  const auto x = la::robust_solve(r.a, r.rhs, report, r.border);
  if (!x) return std::nullopt;
  const std::size_t n = r.points.size();
  double estimate = 0.0;
  double variance = 0.0;
  for (std::size_t j = 0; j < n; ++j) {
    const double w = (*x)[j];
    estimate += w * r.values[j];
    variance += w * r.rhs[j];
  }
  variance += (*x)[n] * 1.0;  // The query's ones-border entry.
  if (!std::isfinite(estimate)) return std::nullopt;
  k::KrigingResult result;
  result.estimate = estimate;
  result.variance = std::max(variance, 0.0);
  result.regularized = report.regularized;
  result.ridge = report.ridge;
  result.rcond = report.rcond;
  for (const auto& o : r.owner) result.weights.push_back(o ? (*x)[*o] : 0.0);
  return result;
}

/// A fresh one-shot system's answer: the path bench/e2e's replay probe
/// takes.
std::optional<k::KrigingResult> one_shot(
    const k::SystemSpec& spec, const std::vector<std::vector<double>>& points,
    const std::vector<double>& values, const std::vector<double>& q,
    const k::VariogramModel& model) {
  k::KrigingSystem sys(spec, points, values, model);
  return sys.query(q);
}

// The metric is fixed by the type: the distance parameter of both
// constructors is L1Distance, so no other callable fits it.
TEST(KrigingSystem, MetricIsFixedByTheType) {
  using Lambda = decltype([](const std::vector<double>& a,
                             const std::vector<double>& b) {
    return k::l1_distance(a, b);
  });
  using Points = std::vector<std::vector<double>>;
  using Values = std::vector<double>;
  static_assert(!std::is_constructible_v<k::KrigingSystem, k::SystemSpec,
                                         const k::VariogramModel&, Lambda>);
  static_assert(
      !std::is_constructible_v<k::KrigingSystem, k::SystemSpec,
                               const Points&, const Values&,
                               const k::VariogramModel&, Lambda>);
  static_assert(
      !std::is_constructible_v<k::EmpiricalVariogram, Lambda, double>);
  static_assert(!std::is_constructible_v<k::EmpiricalVariogram, const Points&,
                                         const Values&, Lambda, double>);
  // The spelling bench/e2e uses still compiles.
  static_assert(std::is_constructible_v<k::KrigingSystem, k::SystemSpec,
                                        const k::VariogramModel&,
                                        const k::L1Distance&>);
  static_assert(std::is_constructible_v<k::EmpiricalVariogram,
                                        const k::L1Distance&, double>);
}

// A hand-solved two-point system with γ(h) = h, where L1 and L2 disagree:
// the support pair sits 7 apart and the query (1, 1) sits 2 and 5 from it,
// so the border gives 7·(λ2 − λ1) = 2 − 5 with λ1 + λ2 = 1, i.e.
// λ = (5/7, 2/7) and an estimate of 2/7 · 7 = 2. Euclidean distances
// (5; √2 and √13) would give other weights.
TEST(KrigingSystem, SolvesOverL1Distances) {
  const k::LinearVariogram model(0.0, 1.0);
  k::KrigingSystem sys({k::SystemKind::kOrdinary}, {{0.0, 0.0}, {3.0, 4.0}},
                       {0.0, 7.0}, model, k::l1_distance);
  const auto r = sys.query({1.0, 1.0});
  ASSERT_TRUE(r.has_value());
  EXPECT_FALSE(r->regularized);
  ASSERT_EQ(r->weights.size(), 2u);
  EXPECT_NEAR(r->weights[0], 5.0 / 7.0, 1e-12);
  EXPECT_NEAR(r->weights[1], 2.0 / 7.0, 1e-12);
  EXPECT_NEAR(r->estimate, 2.0, 1e-12);
}

// Unbiasedness survives the border: the weights sum to 1 (the Lagrange
// border enforces it exactly).
TEST(KrigingSystem, BorderKeepsWeightsUnbiased) {
  const k::SphericalVariogram model(0.0, 1.0, 5.0);
  const auto inst = make_instance(2, 7, 42);
  k::KrigingSystem sys({k::SystemKind::kOrdinary}, inst.points, inst.values,
                       model);
  const auto r = sys.query(inst.query);
  ASSERT_TRUE(r);
  double sum = 0.0;
  for (double w : r->weights) sum += w;
  EXPECT_NEAR(sum, 1.0, 1e-8);
}

TEST(KrigingSystem, CoincidentSupportIsDeduplicated) {
  const k::SphericalVariogram model(0.1, 2.0, 8.0);
  const auto inst = make_instance(2, 5, 21);
  // Duplicate two points (same value: the duplicate carries no new info).
  auto points = inst.points;
  auto values = inst.values;
  points.push_back(points[1]);
  values.push_back(values[1]);
  points.insert(points.begin() + 3, points[0]);
  values.insert(values.begin() + 3, values[0]);

  k::KrigingSystem sys({k::SystemKind::kOrdinary}, points, values, model);
  EXPECT_EQ(sys.support_size(), 7u);
  EXPECT_EQ(sys.unique_size(), 5u);

  const auto got = sys.query(inst.query);
  const auto expect = one_shot({k::SystemKind::kOrdinary}, inst.points,
                               inst.values, inst.query, model);
  ASSERT_TRUE(got && expect);
  EXPECT_EQ(got->estimate, expect->estimate);
  ASSERT_EQ(got->weights.size(), 7u);
  EXPECT_EQ(got->weights[3], 0.0);  // duplicate of points[0]
  EXPECT_EQ(got->weights[6], 0.0);  // duplicate of points[1]
}

TEST(KrigingSystem, ValidatesInput) {
  const k::SphericalVariogram model(0.1, 2.0, 8.0);
  EXPECT_THROW(k::KrigingSystem({k::SystemKind::kOrdinary}, {}, {}, model),
               std::invalid_argument);
  EXPECT_THROW(k::KrigingSystem({k::SystemKind::kOrdinary}, {{1.0, 2.0}},
                                {1.0, 2.0}, model),
               std::invalid_argument);
  EXPECT_THROW(k::KrigingSystem({k::SystemKind::kOrdinary},
                                {{1.0, 2.0}, {1.0}}, {1.0, 2.0}, model),
               std::invalid_argument);
}

// The property test proper: one workspace per spec is reloaded with
// support sets of shrinking and growing size — largest first, so every
// later load sits in buffers holding a bigger system's entries — some
// with a coincident duplicate, then rebound to an
// all-zero variogram whose supports force the ridge ladder, then back.
// Every answer must equal the independent robust_solve reference bit for
// bit, through both query entry points.
TEST(KrigingSystem, ReloadedWorkspaceIsBitIdenticalToRobustSolve) {
  const k::SphericalVariogram model(0.1, 2.0, 8.0);
  const k::LinearVariogram flat(0.0, 0.0);
  const std::vector<k::SystemSpec> specs = all_specs();
  const std::vector<std::size_t> sizes = {12, 3, 9, 1, 6, 2, 12, 4, 5};
  for (std::size_t si = 0; si < specs.size(); ++si) {
    const k::SystemSpec& spec = specs[si];
    k::KrigingSystem ws(spec, model);
    k::KrigingResult reused;
    std::uint64_t seed = 100 * si;
    const auto check = [&](const k::VariogramModel& bound,
                           std::size_t n,
                           bool duplicate) -> std::optional<k::KrigingResult> {
      auto inst = make_instance(3, n, ++seed);
      if (duplicate) {
        inst.points.insert(inst.points.begin() + 1, inst.points.back());
        inst.values.insert(inst.values.begin() + 1, inst.values.back());
      }
      SCOPED_TRACE(::testing::Message()
                   << "spec " << si << " n=" << n
                   << (duplicate ? " +dup" : ""));
      ws.load(inst.points, inst.values);
      const auto want =
          reference_solve(inst.points, inst.values, inst.query, bound);
      expect_identical(ws.query(inst.query), want);
      const bool solved = ws.query(inst.query, reused);
      EXPECT_EQ(solved, want.has_value());
      if (solved && want) expect_identical(reused, want);
      return want;
    };
    for (std::size_t i = 0; i < sizes.size(); ++i)
      check(model, sizes[i], i % 3 == 1);
    ws.set_model(spec, flat);
    for (const std::size_t n : {10u, 4u, 7u}) {
      const auto got = check(flat, n, n == 4);
      // Γ is rank deficient: every entry of the variogram block is 0.
      if (got && n > 1) EXPECT_TRUE(got->regularized);
    }
    // Back to the spherical model: the flat model's γ memo must be gone.
    ws.set_model(spec, model);
    check(model, 6, false);
  }
}

// loo_residuals() on a reloaded workspace equals Dubrule's identity worked
// out on an independently assembled matrix with LuDecomposition, bit for
// bit, after a larger support has been through the same buffers.
TEST(KrigingSystem, LooAfterReloadMatchesIndependentFactor) {
  const k::SphericalVariogram model(0.1, 2.0, 8.0);
  for (const auto& spec : all_specs()) {
    k::KrigingSystem ws(spec, model);
    std::uint64_t seed = 500;
    for (const std::size_t n : {14u, 6u, 9u}) {
      const auto inst = make_instance(2, n, ++seed);
      ws.load(inst.points, inst.values);
      const auto got = ws.loo_residuals();
      const ReferenceSystem r =
          assemble_reference(inst.points, inst.values, inst.query, model);
      const la::LuDecomposition lu(r.a);
      ASSERT_FALSE(lu.singular());
      la::Vector z(r.a.rows());
      for (std::size_t i = 0; i < n; ++i) z[i] = r.values[i];
      const la::Vector u = lu.solve(z);
      const la::Vector diag = lu.inverse_diagonal();
      ASSERT_TRUE(got) << "n=" << n;
      EXPECT_FALSE(got->regularized);
      ASSERT_EQ(got->residuals.size(), n);
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(bits(got->residuals[i]), bits(u[i] / diag[i])) << i;
        const double var = -1.0 / diag[i];
        EXPECT_EQ(bits(got->variances[i]), bits(std::max(var, 0.0))) << i;
      }
      // The query path still answers from the same load afterwards.
      expect_identical(ws.query(inst.query),
                       reference_solve(inst.points, inst.values, inst.query,
                                       model));
    }
  }
}

// Reloads through growing nested supports (each load a superset of the
// last) answer like a one-shot system built for each support.
TEST(KrigingSystem, GrowingReloadsMatchOneShotSystems) {
  const k::SphericalVariogram model(0.1, 2.0, 8.0);
  const auto inst = make_instance(2, 10, 61);
  for (const auto& spec : all_specs()) {
    k::KrigingSystem ws(spec, model);
    for (std::size_t n = 1; n <= inst.points.size(); ++n) {
      SCOPED_TRACE(::testing::Message() << "kind "
                   << static_cast<int>(spec.kind) << " n=" << n);
      const std::vector<std::vector<double>> pts(inst.points.begin(),
                                                 inst.points.begin() + n);
      const std::vector<double> vals(inst.values.begin(),
                                     inst.values.begin() + n);
      ws.load(pts, vals);
      expect_identical(ws.query(inst.query),
                       one_shot(spec, pts, vals, inst.query, model));
    }
  }
}

// The reverse walk: every load is a subset of the last, so each one sits
// in buffers that still hold the larger system's entries.
TEST(KrigingSystem, ShrinkingReloadsMatchOneShotSystems) {
  const k::SphericalVariogram model(0.1, 2.0, 8.0);
  const auto inst = make_instance(3, 11, 62);
  for (const auto& spec : all_specs()) {
    k::KrigingSystem ws(spec, model);
    for (std::size_t n = inst.points.size(); n >= 1; --n) {
      SCOPED_TRACE(::testing::Message() << "kind "
                   << static_cast<int>(spec.kind) << " n=" << n);
      // Drop from the front so the kept points move to new slots.
      const std::vector<std::vector<double>> pts(inst.points.end() - n,
                                                 inst.points.end());
      const std::vector<double> vals(inst.values.end() - n,
                                     inst.values.end());
      ws.load(pts, vals);
      expect_identical(ws.query(inst.query),
                       one_shot(spec, pts, vals, inst.query, model));
    }
  }
}

// Supports that need the ridge ladder answer like a one-shot system, and
// repeating a query on the same load climbs the ladder again to the same
// answer.
TEST(KrigingSystem, RidgeLadderReloadsMatchOneShotSystems) {
  const k::LinearVariogram flat(0.0, 0.0);
  for (const auto& spec : all_specs()) {
    k::KrigingSystem ws(spec, flat);
    std::uint64_t seed = 70;
    std::size_t ridge_answers = 0;
    for (const std::size_t n : {8u, 1u, 5u, 3u}) {
      SCOPED_TRACE(::testing::Message() << "kind "
                   << static_cast<int>(spec.kind) << " n=" << n);
      const auto inst = make_instance(2, n, ++seed);
      ws.load(inst.points, inst.values);
      const auto want =
          one_shot(spec, inst.points, inst.values, inst.query, flat);
      const std::size_t before = ws.stats().full_factorizations;
      const auto got = ws.query(inst.query);
      const std::size_t per_query = ws.stats().full_factorizations - before;
      expect_identical(got, want);
      if (!got) continue;
      EXPECT_EQ(got->regularized, n > 1);
      ridge_answers += got->regularized ? 1 : 0;
      expect_identical(ws.query(inst.query), want);
      EXPECT_EQ(ws.stats().full_factorizations, before + 2 * per_query);
      std::vector<double> q2 = inst.query;
      q2[1] += 0.25;
      expect_identical(ws.query(q2),
                       one_shot(spec, inst.points, inst.values, q2, flat));
    }
    EXPECT_GE(ridge_answers, 2u);
  }
}

// load(n, dim, fill) and load(points, values) build the same system, with
// the same dedupe.
TEST(KrigingSystem, ColumnLoadMatchesRowLoad) {
  const k::SphericalVariogram model(0.1, 2.0, 8.0);
  auto inst = make_instance(3, 7, 63);
  inst.points.insert(inst.points.begin() + 2, inst.points[5]);
  inst.values.insert(inst.values.begin() + 2, inst.values[5]);
  const std::size_t n = inst.points.size();
  k::KrigingSystem rows({k::SystemKind::kOrdinary}, model);
  k::KrigingSystem cols({k::SystemKind::kOrdinary}, model);
  rows.load(inst.points, inst.values);
  cols.load(n, 3,
            [&](std::span<double> columns, std::size_t stride,
                std::span<double> values) {
              ASSERT_GE(stride, n);
              ASSERT_GE(columns.size(), 3 * stride);
              ASSERT_EQ(values.size(), n);
              for (std::size_t p = 0; p < n; ++p) {
                for (std::size_t d = 0; d < 3; ++d)
                  columns[d * stride + p] = inst.points[p][d];
                values[p] = inst.values[p];
              }
            });
  EXPECT_EQ(cols.support_size(), rows.support_size());
  EXPECT_EQ(cols.unique_size(), 7u);
  EXPECT_EQ(cols.dimension(), 3u);
  expect_identical(cols.query(inst.query), rows.query(inst.query));
  const auto loo_cols = cols.loo_residuals();
  const auto loo_rows = rows.loo_residuals();
  ASSERT_TRUE(loo_cols && loo_rows);
  ASSERT_EQ(loo_cols->residuals.size(), loo_rows->residuals.size());
  for (std::size_t i = 0; i < loo_rows->residuals.size(); ++i) {
    EXPECT_EQ(bits(loo_cols->residuals[i]), bits(loo_rows->residuals[i]));
    EXPECT_EQ(bits(loo_cols->variances[i]), bits(loo_rows->variances[i]));
  }
}

// A rejected load leaves the workspace answering from its previous
// support and model.
TEST(KrigingSystem, RejectedLoadKeepsTheWorkspace) {
  const k::SphericalVariogram model(0.1, 2.0, 8.0);
  const auto inst = make_instance(2, 5, 64);
  k::KrigingSystem ws({k::SystemKind::kOrdinary}, model);
  ws.load(inst.points, inst.values);
  const auto want = ws.query(inst.query);
  ASSERT_TRUE(want);
  EXPECT_THROW(ws.load(0, 2, [](auto, std::size_t, auto) {}),
               std::invalid_argument);
  expect_identical(ws.query(inst.query), want);
  EXPECT_EQ(ws.spec().kind, k::SystemKind::kOrdinary);
}

// set_model rebinds the model in place: after each rebind and reload the
// workspace answers like a fresh system.
TEST(KrigingSystem, SetModelRebindsEstimatorModel) {
  const k::SphericalVariogram spherical(0.1, 2.0, 8.0);
  const k::ExponentialVariogram exponential(0.0, 3.0, 4.0);
  const auto inst = make_instance(2, 8, 65);
  const std::vector<k::SystemSpec> specs = all_specs();
  k::KrigingSystem ws(specs.front(), spherical);
  for (const k::VariogramModel* model :
       {static_cast<const k::VariogramModel*>(&spherical),
        static_cast<const k::VariogramModel*>(&exponential)})
    for (const auto& spec : specs) {
      SCOPED_TRACE(::testing::Message()
                   << model->name() << " kind "
                   << static_cast<int>(spec.kind));
      ws.set_model(spec, *model);
      ws.load(inst.points, inst.values);
      expect_identical(ws.query(inst.query),
                       one_shot(spec, inst.points, inst.values, inst.query,
                                *model));
    }
}

// A load factors nothing; each query factors every ladder rung it tries
// (the count the policy reports as full_factorizations), and a repeated
// query on one load answers bit-identically.
TEST(KrigingSystem, EachQueryFactorsTheRungsItTries) {
  const k::SphericalVariogram model(0.1, 2.0, 8.0);
  const k::LinearVariogram flat(0.0, 0.0);
  const auto a = make_instance(2, 6, 66);
  k::KrigingSystem ws({k::SystemKind::kOrdinary}, model);
  ws.load(a.points, a.values);
  ws.load(a.points, a.values);
  EXPECT_EQ(ws.stats().full_factorizations, 0u);
  // A well-conditioned system is answered by the plain rung alone.
  const auto first = ws.query(a.query);
  ASSERT_TRUE(first);
  EXPECT_FALSE(first->regularized);
  EXPECT_EQ(ws.stats().full_factorizations, 1u);
  expect_identical(ws.query(a.query), first);
  EXPECT_EQ(ws.stats().full_factorizations, 2u);
  // A flat variogram leaves the plain rung singular: each query factors
  // it and then the first ridge rung, which answers.
  ws.set_model({k::SystemKind::kOrdinary}, flat);
  ws.load(a.points, a.values);
  EXPECT_EQ(ws.stats().full_factorizations, 2u);
  const auto ridged = ws.query(a.query);
  ASSERT_TRUE(ridged);
  EXPECT_TRUE(ridged->regularized);
  EXPECT_EQ(ws.stats().full_factorizations, 4u);
  expect_identical(ws.query(a.query), ridged);
  EXPECT_EQ(ws.stats().full_factorizations, 6u);
  EXPECT_EQ(ws.stats().solves, 4u);
}

// A LOO pass factors every ladder rung it tries into the same scratch
// factor a query uses: a repeated pass climbs the ladder again to the same
// residuals, and a query in between does not disturb it.
TEST(KrigingSystem, LooPassFactorsTheRungsItTries) {
  const k::SphericalVariogram model(0.1, 2.0, 8.0);
  const k::LinearVariogram flat(0.0, 0.0);
  const auto a = make_instance(2, 6, 68);
  for (const k::VariogramModel* m :
       {static_cast<const k::VariogramModel*>(&model),
        static_cast<const k::VariogramModel*>(&flat)}) {
    k::KrigingSystem ws({k::SystemKind::kOrdinary}, *m);
    ws.load(a.points, a.values);
    EXPECT_EQ(ws.stats().full_factorizations, 0u);
    const auto first = ws.loo_residuals();
    ASSERT_TRUE(first);
    EXPECT_EQ(first->regularized, m == &flat);
    const std::size_t per_pass = ws.stats().full_factorizations;
    // The plain rung alone when it factors; otherwise it and the ridge
    // rungs up to the one the report names.
    EXPECT_EQ(per_pass == 1u, !first->regularized);
    EXPECT_GE(per_pass, first->regularized ? 2u : 1u);
    ASSERT_TRUE(ws.query(a.query));
    const std::size_t before = ws.stats().full_factorizations;
    const auto again = ws.loo_residuals();
    ASSERT_TRUE(again);
    EXPECT_EQ(ws.stats().full_factorizations, before + per_pass);
    EXPECT_EQ(bits(again->shift), bits(first->shift));
    ASSERT_EQ(again->residuals.size(), first->residuals.size());
    for (std::size_t i = 0; i < first->residuals.size(); ++i) {
      EXPECT_EQ(bits(again->residuals[i]), bits(first->residuals[i])) << i;
      EXPECT_EQ(bits(again->variances[i]), bits(first->variances[i])) << i;
    }
  }
}

// A workspace answers only after a load, and set_model drops the load.
TEST(KrigingSystem, QueryNeedsALoadedSupport) {
  const k::SphericalVariogram model(0.1, 2.0, 8.0);
  const auto inst = make_instance(2, 4, 77);
  k::KrigingSystem ws({k::SystemKind::kOrdinary}, model);
  EXPECT_THROW((void)ws.query(inst.query), std::logic_error);
  ws.load(inst.points, inst.values);
  EXPECT_TRUE(ws.query(inst.query));
  // A rejected row load leaves the loaded support in place.
  EXPECT_THROW(ws.load({}, {}), std::invalid_argument);
  EXPECT_THROW(ws.load({{1.0, 2.0}, {1.0}}, {1.0, 2.0}),
               std::invalid_argument);
  expect_identical(ws.query(inst.query),
                   one_shot({k::SystemKind::kOrdinary}, inst.points,
                            inst.values, inst.query, model));
  ws.set_model({k::SystemKind::kOrdinary}, model);
  EXPECT_THROW((void)ws.query(inst.query), std::logic_error);
}

}  // namespace
