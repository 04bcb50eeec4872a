// Factorization-backed leave-one-out cross-validation (ISSUE 10): the
// property at stake is that KrigingSystem::loo_residuals() — Dubrule's
// identity against the one existing factorization, O(n²) per residual —
// matches n scratch LOO refits within 1e-10, for ordinary kriging, the
// ridge-fallback path and coincident-support dedupe.
//
// Two independent comparators pin the identity:
//   * a matrix-level scratch solve: assemble the full (shifted) system
//     the way KrigingSystem does, delete row/column i, solve the deleted
//     system with a plain LU — by block inversion the deleted solve
//     yields both the LOO residual and −(A_ii − bᵀx) = −1/B_ii, i.e. the
//     LOO variance;
//   * real (n−1)-point KrigingSystem refits queried at the held-out
//     point, for the unridged zero-nugget case where the refit's own
//     ladder provably stays at shift 0.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <optional>
#include <vector>

#include "kriging/empirical_variogram.hpp"
#include "kriging/system.hpp"
#include "kriging/variogram_model.hpp"
#include "linalg/lu_decomposition.hpp"
#include "linalg/matrix.hpp"
#include "linalg/vector.hpp"
#include "util/rng.hpp"

namespace {

namespace k = ace::kriging;
namespace la = ace::linalg;

constexpr double kTol = 1e-10;

std::vector<std::vector<double>> lattice_points(std::size_t dim,
                                                std::size_t n,
                                                std::uint64_t seed) {
  ace::util::Rng rng(seed);
  std::vector<std::vector<double>> pts;
  while (pts.size() < n) {
    std::vector<double> p(dim);
    for (auto& x : p) x = rng.uniform_int(0, 9);
    if (std::find(pts.begin(), pts.end(), p) == pts.end())
      pts.push_back(std::move(p));
  }
  return pts;
}

std::vector<double> random_values(std::size_t n, std::uint64_t seed) {
  ace::util::Rng rng(seed);
  std::vector<double> v(n);
  for (auto& x : v) x = rng.uniform(-10.0, 10.0);
  return v;
}

/// The full system matrix exactly as KrigingSystem::assemble lays it out:
/// unique points first, the ones-border last, `shift` on the data
/// diagonal only.
la::Matrix assemble_full(const k::VariogramModel& model,
                         const std::vector<std::vector<double>>& pts,
                         double shift) {
  const std::size_t n = pts.size();
  const std::size_t m = n + 1;
  const double diagonal = model.gamma(0.0);
  la::Matrix a(m, m);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j)
      a(i, j) = i == j ? diagonal + shift
                       : model.gamma(k::l1_distance(pts[i], pts[j]));
    a(i, n) = 1.0;
    a(n, i) = 1.0;
  }
  return a;
}

/// z̃ in matrix order: values on data rows, zero on the border.
la::Vector padded_values(const std::vector<double>& values, std::size_t m) {
  la::Vector z(m);
  for (std::size_t i = 0; i < values.size(); ++i) z[i] = values[i];
  return z;
}

struct ScratchLoo {
  std::vector<double> residuals;
  std::vector<double> variances;
};

/// n scratch LOO solves from the deleted systems: drop row/column i of
/// the assembled (shifted) matrix, solve A₋ᵢ·x = A[−i, i] with a plain
/// LU, and read off e_i = z̃_i − xᵀ·z̃₋ᵢ and the block-inverse variance
/// −(A_ii − bᵀx). This is exactly the system "with point i deleted,
/// predicting at point i" — the O(n³)-per-point computation Dubrule's
/// identity replaces.
ScratchLoo scratch_loo(const k::VariogramModel& model,
                       const std::vector<std::vector<double>>& pts,
                       const std::vector<double>& values, double shift) {
  const std::size_t n = pts.size();
  const la::Matrix a = assemble_full(model, pts, shift);
  const std::size_t m = a.rows();
  const la::Vector z = padded_values(values, m);
  ScratchLoo out;
  for (std::size_t i = 0; i < n; ++i) {
    la::Matrix deleted(m - 1, m - 1);
    la::Vector b(m - 1);
    for (std::size_t r = 0, dr = 0; r < m; ++r) {
      if (r == i) continue;
      b[dr] = a(r, i);
      for (std::size_t c = 0, dc = 0; c < m; ++c) {
        if (c == i) continue;
        deleted(dr, dc) = a(r, c);
        ++dc;
      }
      ++dr;
    }
    la::LuDecomposition lu(deleted);
    EXPECT_FALSE(lu.singular()) << "deleted system " << i;
    const la::Vector x = lu.solve(b);
    double predicted = 0.0;
    double quad = 0.0;
    for (std::size_t r = 0, dr = 0; r < m; ++r) {
      if (r == i) continue;
      predicted += x[dr] * z[r];
      quad += x[dr] * b[dr];
      ++dr;
    }
    const double raw = a(i, i) - quad;
    out.residuals.push_back(z[i] - predicted);
    out.variances.push_back(std::max(-raw, 0.0));
  }
  return out;
}

std::vector<k::SystemSpec> all_specs() {
  k::SystemSpec ordinary{k::SystemKind::kOrdinary};
  return {ordinary};
}

TEST(KrigingLoo, MatchesScratchDeletedSolvesAcrossEstimators) {
  const k::SphericalVariogram model(0.1, 2.0, 8.0);
  for (const auto& spec : all_specs()) {
    for (std::uint64_t seed : {21u, 22u, 23u}) {
      const auto pts = lattice_points(2, 8, seed);
      const auto values = random_values(8, seed + 100);
      k::KrigingSystem sys(spec, pts, values, model);
      const auto report = sys.loo_residuals();
      ASSERT_TRUE(report.has_value());
      const auto scratch = scratch_loo(model, pts, values, report->shift);
      ASSERT_EQ(report->residuals.size(), pts.size());
      for (std::size_t i = 0; i < pts.size(); ++i) {
        EXPECT_NEAR(report->residuals[i], scratch.residuals[i], kTol)
            << "estimator " << static_cast<int>(spec.kind) << " point " << i;
        EXPECT_NEAR(report->variances[i], scratch.variances[i], kTol)
            << "estimator " << static_cast<int>(spec.kind) << " point " << i;
      }
    }
  }
}

// Second, fully independent comparator: real (n−1)-point KrigingSystem
// refits. Each refit is built from scratch on the reduced support and
// queried at the held-out point — residual AND kriging variance must
// match the factorization-backed report.
TEST(KrigingLoo, MatchesRealScratchRefitsWhenUnridged) {
  const k::SphericalVariogram model(0.1, 2.0, 8.0);
  for (const auto& spec : all_specs()) {
    const auto pts = lattice_points(2, 8, 31);
    const auto values = random_values(8, 131);
    k::KrigingSystem sys(spec, pts, values, model);
    const auto report = sys.loo_residuals();
    ASSERT_TRUE(report.has_value());
    ASSERT_EQ(report->shift, 0.0);
    ASSERT_FALSE(report->regularized);
    for (std::size_t i = 0; i < pts.size(); ++i) {
      auto sub_pts = pts;
      auto sub_values = values;
      sub_pts.erase(sub_pts.begin() + static_cast<std::ptrdiff_t>(i));
      sub_values.erase(sub_values.begin() + static_cast<std::ptrdiff_t>(i));
      k::KrigingSystem refit(spec, sub_pts, sub_values, model);
      const auto predicted = refit.query(pts[i]);
      ASSERT_TRUE(predicted.has_value());
      ASSERT_FALSE(predicted->regularized);
      EXPECT_NEAR(report->residuals[i], values[i] - predicted->estimate, kTol)
          << "estimator " << static_cast<int>(spec.kind) << " point " << i;
      EXPECT_NEAR(report->variances[i], predicted->variance, kTol)
          << "estimator " << static_cast<int>(spec.kind) << " point " << i;
    }
  }
}

// Ridge path: a near-coincident pair (1e-14 apart, zero-nugget variogram)
// makes the plain matrix numerically singular, so loo_residuals climbs
// the ladder; the identity must then hold against scratch deleted solves
// of the matrix at the very shift the report records. The pair shares one
// value so the regularized system stays consistent and the comparison
// stays at 1e-10 despite the conditioning.
TEST(KrigingLoo, RidgePathMatchesScratchAtTheRecordedShift) {
  const k::SphericalVariogram model(0.0, 2.0, 8.0);
  std::vector<std::vector<double>> pts = {{0.0, 0.0}, {3.0, 1.0}, {6.0, 2.0},
                                          {1.0, 5.0}, {7.0, 6.0}, {4.0, 4.0},
                                          {2.0, 7.0}};
  std::vector<double> values = random_values(pts.size(), 57);
  pts.push_back({2.0 + 1e-14, 7.0});
  values.push_back(values[6]);  // Same value as its near-twin.
  const k::SystemSpec spec{k::SystemKind::kOrdinary};
  k::KrigingSystem sys(spec, pts, values, model);
  const auto report = sys.loo_residuals();
  ASSERT_TRUE(report.has_value());
  EXPECT_TRUE(report->regularized);
  EXPECT_GT(report->shift, 0.0);
  const auto scratch = scratch_loo(model, pts, values, report->shift);
  for (std::size_t i = 0; i < pts.size(); ++i) {
    EXPECT_NEAR(report->residuals[i], scratch.residuals[i], kTol)
        << "point " << i;
    EXPECT_NEAR(report->variances[i], scratch.variances[i], kTol)
        << "point " << i;
  }
}

// Coincident-support dedupe: exact duplicates collapse to zero-weight
// slots, so the LOO report covers the unique support only and matches
// scratch solves over the deduplicated point list.
TEST(KrigingLoo, DedupedSupportMatchesScratchOverUniquePoints) {
  const k::SphericalVariogram model(0.1, 2.0, 8.0);
  const auto unique_pts = lattice_points(2, 6, 41);
  const auto unique_values = random_values(6, 141);
  auto pts = unique_pts;
  auto values = unique_values;
  pts.push_back(unique_pts[1]);  // Exact duplicates of existing support.
  values.push_back(unique_values[1]);
  pts.push_back(unique_pts[4]);
  values.push_back(unique_values[4]);
  for (const auto& spec : all_specs()) {
    k::KrigingSystem sys(spec, pts, values, model);
    ASSERT_EQ(sys.support_size(), pts.size());
    ASSERT_EQ(sys.unique_size(), unique_pts.size());
    const auto report = sys.loo_residuals();
    ASSERT_TRUE(report.has_value());
    ASSERT_EQ(report->residuals.size(), unique_pts.size());
    const auto scratch =
        scratch_loo(model, unique_pts, unique_values, report->shift);
    for (std::size_t i = 0; i < unique_pts.size(); ++i) {
      EXPECT_NEAR(report->residuals[i], scratch.residuals[i], kTol)
          << "estimator " << static_cast<int>(spec.kind) << " point " << i;
      EXPECT_NEAR(report->variances[i], scratch.variances[i], kTol)
          << "estimator " << static_cast<int>(spec.kind) << " point " << i;
    }
  }
}

TEST(KrigingLoo, DegenerateSupportsReturnNullopt) {
  const k::SphericalVariogram model(0.1, 2.0, 8.0);
  k::KrigingSystem single({k::SystemKind::kOrdinary}, {{1.0, 2.0}}, {3.0},
                          model);
  EXPECT_FALSE(single.loo_residuals().has_value());
}

}  // namespace
