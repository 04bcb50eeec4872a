#include "linalg/lu.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "kriging/empirical_variogram.hpp"
#include "linalg/lu_decomposition.hpp"
#include "util/rng.hpp"

namespace {

using ace::linalg::LuDecomposition;
using ace::linalg::Matrix;
using ace::linalg::Vector;
namespace la = ace::linalg;

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

/// Row-major copy of a matrix, the in-place kernels' layout.
std::vector<double> row_major(const Matrix& m) {
  std::vector<double> a;
  for (std::size_t r = 0; r < m.rows(); ++r)
    for (std::size_t c = 0; c < m.cols(); ++c) a.push_back(m(r, c));
  return a;
}

Matrix random_matrix(ace::util::Rng& rng, std::size_t n) {
  Matrix m(n, n);
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t c = 0; c < n; ++c) m(r, c) = rng.uniform(-2.0, 2.0);
  // Diagonal boost keeps the random systems comfortably non-singular.
  for (std::size_t i = 0; i < n; ++i) m(i, i) += 3.0;
  return m;
}

TEST(Lu, RejectsNonSquare) {
  EXPECT_THROW(LuDecomposition(Matrix(2, 3)), std::invalid_argument);
}

TEST(Lu, SolvesKnownSystem) {
  // 2x + y = 5 ; x + 3y = 10  =>  x = 1, y = 3.
  Matrix a{{2.0, 1.0}, {1.0, 3.0}};
  LuDecomposition lu(a);
  ASSERT_FALSE(lu.singular());
  const Vector x = lu.solve(Vector{5.0, 10.0});
  EXPECT_NEAR(x[0], 1.0, 1e-12);
  EXPECT_NEAR(x[1], 3.0, 1e-12);
}

TEST(Lu, PivotingHandlesZeroLeadingDiagonal) {
  Matrix a{{0.0, 1.0}, {1.0, 0.0}};  // Permutation matrix.
  LuDecomposition lu(a);
  ASSERT_FALSE(lu.singular());
  const Vector x = lu.solve(Vector{2.0, 7.0});
  EXPECT_NEAR(x[0], 7.0, 1e-12);
  EXPECT_NEAR(x[1], 2.0, 1e-12);
}

TEST(Lu, DetectsSingularMatrix) {
  Matrix a{{1.0, 2.0}, {2.0, 4.0}};
  LuDecomposition lu(a);
  EXPECT_TRUE(lu.singular());
  EXPECT_DOUBLE_EQ(lu.rcond_estimate(), 0.0);
  EXPECT_THROW((void)lu.solve(Vector{1.0, 1.0}), std::runtime_error);
}

TEST(Lu, SolveSizeMismatchThrows) {
  LuDecomposition lu(Matrix::identity(3));
  EXPECT_THROW((void)lu.solve(Vector{1.0, 2.0}), std::invalid_argument);
}

TEST(Lu, SolvesDiagonalSystem) {
  Matrix a{{2.0, 0.0, 0.0}, {0.0, 3.0, 0.0}, {0.0, 0.0, 4.0}};
  const Vector x = LuDecomposition(a).solve(Vector{2.0, 6.0, 12.0});
  EXPECT_DOUBLE_EQ(x[0], 1.0);
  EXPECT_DOUBLE_EQ(x[1], 2.0);
  EXPECT_DOUBLE_EQ(x[2], 3.0);
}

TEST(Lu, SolvesSymmetricIndefiniteSystem) {
  // Eigenvalues 3 and −1: symmetric but not positive definite, the shape
  // of the bordered kriging matrix, which a Cholesky factor cannot take.
  Matrix a{{1.0, 2.0}, {2.0, 1.0}};
  LuDecomposition lu(a);
  ASSERT_FALSE(lu.singular());
  const Vector x = lu.solve(Vector{1.0, 1.0});
  EXPECT_NEAR(x[0], 1.0 / 3.0, 1e-12);
  EXPECT_NEAR(x[1], 1.0 / 3.0, 1e-12);
}

TEST(Lu, InverseTimesOriginalIsIdentity) {
  // Column j of A⁻¹ is the solve A·x = e_j.
  ace::util::Rng rng(17);
  const std::size_t n = 5;
  const Matrix a = random_matrix(rng, n);
  const LuDecomposition lu(a);
  Matrix inv(n, n);
  for (std::size_t j = 0; j < n; ++j) {
    Vector e(n);
    e[j] = 1.0;
    const Vector x = lu.solve(e);
    for (std::size_t i = 0; i < n; ++i) inv(i, j) = x[i];
  }
  const Matrix prod = a * inv;
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t c = 0; c < n; ++c)
      EXPECT_NEAR(prod(r, c), r == c ? 1.0 : 0.0, 1e-9);
}

TEST(Lu, MultipleRightHandSides) {
  // One factor serves any number of right-hand sides.
  ace::util::Rng rng(42);
  const std::size_t n = 7;
  const Matrix a = random_matrix(rng, n);
  const LuDecomposition lu(a);
  ASSERT_FALSE(lu.singular());
  for (int k = 0; k < 4; ++k) {
    Vector b(n);
    for (std::size_t i = 0; i < n; ++i) b[i] = rng.uniform(-5.0, 5.0);
    EXPECT_LT((a * lu.solve(b) - b).norm_inf(), 1e-9) << "rhs " << k;
  }
}

TEST(Lu, RepeatedSolvesOnOneFactorAreBitIdentical) {
  // solve() leaves the factor untouched, so the answer for a right-hand
  // side does not depend on which solves ran before it.
  ace::util::Rng rng(43);
  const std::size_t n = 6;
  const LuDecomposition lu(random_matrix(rng, n));
  Vector b1(n);
  Vector b2(n);
  for (std::size_t i = 0; i < n; ++i) {
    b1[i] = rng.uniform(-5.0, 5.0);
    b2[i] = rng.uniform(-5.0, 5.0);
  }
  const Vector first = lu.solve(b1);
  (void)lu.solve(b2);
  const Vector again = lu.solve(b1);
  for (std::size_t i = 0; i < n; ++i)
    EXPECT_EQ(bits(first[i]), bits(again[i])) << "entry " << i;
}

TEST(Lu, InverseDiagonalMatchesUnitVectorSolves) {
  ace::util::Rng rng(29);
  const Matrix a = random_matrix(rng, 6);
  const LuDecomposition lu(a);
  const Vector diag = lu.inverse_diagonal();
  ASSERT_EQ(diag.size(), 6u);
  // [A⁻¹]_ii is entry i of the solve A·x = e_i; inverse_diagonal walks the
  // same unit-vector solves, so the match is exact.
  for (std::size_t i = 0; i < 6; ++i) {
    Vector e(6);
    e[i] = 1.0;
    EXPECT_EQ(bits(diag[i]), bits(lu.solve(e)[i])) << "entry " << i;
  }
}

TEST(Lu, InverseDiagonalMatchesSchurComplementOfDeletedSystems) {
  // The identity behind the kriging LOO-CV fast path: 1/[A⁻¹]_ii equals
  // the Schur complement A_ii − A_i,−i · A₋ᵢ⁻¹ · A₋ᵢ,i of the system
  // with row/column i deleted — n scratch refits in one factorization.
  ace::util::Rng rng(33);
  const std::size_t n = 7;
  const Matrix a = random_matrix(rng, n);
  const Vector diag = LuDecomposition(a).inverse_diagonal();
  for (std::size_t i = 0; i < n; ++i) {
    Matrix deleted(n - 1, n - 1);
    Vector col(n - 1);
    Vector row(n - 1);
    for (std::size_t r = 0, dr = 0; r < n; ++r) {
      if (r == i) continue;
      col[dr] = a(r, i);
      row[dr] = a(i, r);
      for (std::size_t c = 0, dc = 0; c < n; ++c) {
        if (c == i) continue;
        deleted(dr, dc) = a(r, c);
        ++dc;
      }
      ++dr;
    }
    const Vector x = LuDecomposition(deleted).solve(col);
    double schur = a(i, i);
    for (std::size_t k = 0; k < n - 1; ++k) schur -= row[k] * x[k];
    EXPECT_NEAR(diag[i], 1.0 / schur, 1e-10) << "entry " << i;
  }
}

TEST(Lu, InverseDiagonalThrowsOnSingularMatrix) {
  const LuDecomposition lu(Matrix{{1.0, 2.0}, {2.0, 4.0}});
  ASSERT_TRUE(lu.singular());
  EXPECT_THROW((void)lu.inverse_diagonal(), std::runtime_error);
}

TEST(Lu, RcondEstimatePositiveForWellConditioned) {
  EXPECT_GT(LuDecomposition(Matrix::identity(4)).rcond_estimate(), 0.5);
}

TEST(Lu, RcondEstimateIsThePivotRatio) {
  EXPECT_DOUBLE_EQ(
      LuDecomposition(Matrix{{4.0, 0.0, 0.0}, {0.0, 2.0, 0.0}, {0.0, 0.0, 0.5}})
          .rcond_estimate(),
      0.125);
  EXPECT_DOUBLE_EQ(
      LuDecomposition(Matrix{{1.0, 0.0}, {0.0, 1e-6}}).rcond_estimate(), 1e-6);
}

/// Property sweep: residual ‖Ax − b‖∞ stays tiny across sizes and seeds.
class LuResidualTest
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::uint64_t>> {};

TEST_P(LuResidualTest, ResidualIsSmall) {
  const auto [n, seed] = GetParam();
  ace::util::Rng rng(seed);
  const Matrix a = random_matrix(rng, n);
  Vector b(n);
  for (std::size_t i = 0; i < n; ++i) b[i] = rng.uniform(-5.0, 5.0);
  LuDecomposition lu(a);
  ASSERT_FALSE(lu.singular());
  const Vector x = lu.solve(b);
  const Vector residual = a * x - b;
  EXPECT_LT(residual.norm_inf(), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    SizesAndSeeds, LuResidualTest,
    ::testing::Combine(::testing::Values<std::size_t>(1, 2, 3, 5, 8, 13, 21),
                       ::testing::Values<std::uint64_t>(1, 2, 3, 4, 5)));

/// Property sweep over the in-place kernels on caller-owned buffers: the
/// factor reproduces P·A = L·U with a true permutation, and the solve is
/// bit-identical to LuDecomposition's (the wrapper runs the same kernels,
/// so a second LU creeping in would show here).
class LuInplaceTest
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::uint64_t>> {};

TEST_P(LuInplaceTest, FactorReproducesPermutedMatrixAndWrapperSolve) {
  const auto [n, seed] = GetParam();
  ace::util::Rng rng(seed);
  const Matrix a = random_matrix(rng, n);
  std::vector<double> lu = row_major(a);
  std::vector<std::size_t> perm(n);
  ASSERT_TRUE(la::lu_factor_inplace(lu.data(), n, perm.data()));

  // perm is a permutation of 0..n-1.
  std::vector<std::size_t> sorted = perm;
  std::sort(sorted.begin(), sorted.end());
  std::vector<std::size_t> iota(n);
  std::iota(iota.begin(), iota.end(), std::size_t{0});
  ASSERT_EQ(sorted, iota);

  // (L·U)(r, c) equals A(perm[r], c) up to rounding.
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t c = 0; c < n; ++c) {
      double acc = 0.0;
      for (std::size_t k = 0; k <= std::min(r, c); ++k)
        acc += (k == r ? 1.0 : lu[r * n + k]) * lu[k * n + c];
      EXPECT_NEAR(acc, a(perm[r], c), 1e-11) << r << "," << c;
    }

  Vector b(n);
  for (std::size_t i = 0; i < n; ++i) b[i] = rng.uniform(-5.0, 5.0);
  std::vector<double> x(n);
  la::lu_solve_inplace(lu.data(), n, perm.data(), b.data().data(), x.data());
  const Vector want = LuDecomposition(a).solve(b);
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(bits(x[i]), bits(want[i]));
}

INSTANTIATE_TEST_SUITE_P(
    SizesAndSeeds, LuInplaceTest,
    ::testing::Combine(::testing::Values<std::size_t>(1, 2, 3, 5, 8, 13),
                       ::testing::Values<std::uint64_t>(6, 7)));

TEST(LuInplace, ReportsSingularMatrices) {
  std::vector<std::size_t> perm(3);
  // Rank 2: row 2 = row 0 + row 1.
  std::vector<double> rank2 = {1, 2, 3, 4, 5, 6, 5, 7, 9};
  EXPECT_FALSE(la::lu_factor_inplace(rank2.data(), 3, perm.data()));
  std::vector<double> zero(9, 0.0);
  EXPECT_FALSE(la::lu_factor_inplace(zero.data(), 3, perm.data()));
  // LuDecomposition's verdict comes from the same kernel.
  EXPECT_TRUE(LuDecomposition(Matrix{{1, 2, 3}, {4, 5, 6}, {5, 7, 9}})
                  .singular());
}

TEST(LuInplace, EmptySystemFactorsTrivially) {
  double unused = 0.0;
  std::size_t perm = 0;
  EXPECT_TRUE(la::lu_factor_inplace(&unused, 0, &perm));
  EXPECT_EQ(la::lu_rcond_estimate(&unused, 0), 0.0);
}

// The kernels on their own, no wrapper: a known 2×2 system, and a zero
// leading diagonal that forces a row swap into the permutation.
TEST(LuInplace, SolvesKnownSystemsOnRawBuffers) {
  std::vector<std::size_t> perm(2);
  std::vector<double> x(2);
  // 2x + y = 5 ; x + 3y = 10  =>  x = 1, y = 3.
  std::vector<double> a = {2.0, 1.0, 1.0, 3.0};
  ASSERT_TRUE(la::lu_factor_inplace(a.data(), 2, perm.data()));
  const std::vector<double> b = {5.0, 10.0};
  la::lu_solve_inplace(a.data(), 2, perm.data(), b.data(), x.data());
  EXPECT_NEAR(x[0], 1.0, 1e-12);
  EXPECT_NEAR(x[1], 3.0, 1e-12);

  std::vector<double> swap = {0.0, 1.0, 1.0, 0.0};
  ASSERT_TRUE(la::lu_factor_inplace(swap.data(), 2, perm.data()));
  EXPECT_EQ(perm, (std::vector<std::size_t>{1, 0}));
  const std::vector<double> c = {2.0, 7.0};
  la::lu_solve_inplace(swap.data(), 2, perm.data(), c.data(), x.data());
  EXPECT_EQ(x, (std::vector<double>{7.0, 2.0}));
}

// A diagonal matrix factors into itself: its inverse diagonal is the
// reciprocals (exact for powers of two) and rcond the pivot ratio.
TEST(LuInplace, DiagonalMatrixGivesReciprocalsAndThePivotRatio) {
  const std::size_t n = 4;
  const std::vector<double> d = {2.0, -8.0, 0.5, 4.0};
  std::vector<double> a(n * n, 0.0);
  for (std::size_t i = 0; i < n; ++i) a[i * n + i] = d[i];
  std::vector<std::size_t> perm(n);
  ASSERT_TRUE(la::lu_factor_inplace(a.data(), n, perm.data()));
  std::vector<double> e(n), x(n), diag(n);
  la::lu_inverse_diagonal(a.data(), n, perm.data(), e.data(), x.data(),
                          diag.data());
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(diag[i], 1.0 / d[i]) << i;
  EXPECT_EQ(la::lu_rcond_estimate(a.data(), n), 0.5 / 8.0);
}

// Pivoting is by magnitude within the column: a row swap brings the
// largest |a_rk| up, so every multiplier stored in L is at most 1.
TEST(LuInplace, PartialPivotingKeepsMultipliersAtMostOne) {
  ace::util::Rng rng(53);
  const std::size_t n = 9;
  std::vector<double> a(n * n);
  for (double& v : a) v = rng.uniform(-4.0, 4.0);
  std::vector<std::size_t> perm(n);
  ASSERT_TRUE(la::lu_factor_inplace(a.data(), n, perm.data()));
  for (std::size_t r = 1; r < n; ++r)
    for (std::size_t c = 0; c < r; ++c)
      EXPECT_LE(std::abs(a[r * n + c]), 1.0) << r << "," << c;
}

// The pivot test is relative to max|A|: scaling a matrix does not change
// its verdict, and a pivot under kPivotTolerance · max|A| is singular.
TEST(LuInplace, PivotToleranceIsRelativeToTheMatrixScale) {
  std::vector<std::size_t> perm(2);
  for (const double scale : {1e-200, 1.0, 1e200}) {
    std::vector<double> a = {2.0 * scale, 1.0 * scale, 1.0 * scale,
                             3.0 * scale};
    EXPECT_TRUE(la::lu_factor_inplace(a.data(), 2, perm.data())) << scale;
  }
  // Second pivot 1e-14 relative to max|A| = 1: under kPivotTolerance.
  std::vector<double> a = {1.0, 1.0, 1.0, 1.0 + 1e-14};
  EXPECT_FALSE(la::lu_factor_inplace(a.data(), 2, perm.data()));
}

TEST(LuInplace, InverseDiagonalAndRcondMatchTheWrapperBitwise) {
  ace::util::Rng rng(41);
  const std::size_t n = 7;
  const Matrix a = random_matrix(rng, n);
  std::vector<double> lu = row_major(a);
  std::vector<std::size_t> perm(n);
  ASSERT_TRUE(la::lu_factor_inplace(lu.data(), n, perm.data()));
  std::vector<double> e(n), x(n), diag(n);
  la::lu_inverse_diagonal(lu.data(), n, perm.data(), e.data(), x.data(),
                          diag.data());
  const LuDecomposition wrapper(a);
  const Vector want = wrapper.inverse_diagonal();
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(bits(diag[i]), bits(want[i]));

  // rcond is min|pivot| / max|pivot| over U's diagonal.
  double lo = std::numeric_limits<double>::infinity();
  double hi = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    lo = std::min(lo, std::abs(lu[i * n + i]));
    hi = std::max(hi, std::abs(lu[i * n + i]));
  }
  EXPECT_EQ(la::lu_rcond_estimate(lu.data(), n), lo / hi);
  EXPECT_EQ(bits(wrapper.rcond_estimate()),
            bits(la::lu_rcond_estimate(lu.data(), n)));
}

TEST(LuInplace, SolveReadsButNeverWritesFactorOrRightHandSide) {
  ace::util::Rng rng(43);
  const std::size_t n = 6;
  std::vector<double> lu = row_major(random_matrix(rng, n));
  std::vector<std::size_t> perm(n);
  ASSERT_TRUE(la::lu_factor_inplace(lu.data(), n, perm.data()));
  std::vector<double> b(n);
  for (auto& v : b) v = rng.uniform(-1.0, 1.0);
  const std::vector<double> lu_before = lu;
  const std::vector<std::size_t> perm_before = perm;
  const std::vector<double> b_before = b;
  std::vector<double> x(n), x2(n);
  la::lu_solve_inplace(lu.data(), n, perm.data(), b.data(), x.data());
  la::lu_solve_inplace(lu.data(), n, perm.data(), b.data(), x2.data());
  EXPECT_EQ(lu, lu_before);
  EXPECT_EQ(perm, perm_before);
  EXPECT_EQ(b, b_before);
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(bits(x[i]), bits(x2[i]));
}

// A reused buffer that held a larger factor: factoring a smaller system in
// its prefix gives exactly what a fresh buffer gives (no stale entry is
// read), which is how kriging::KrigingSystem reuses its factor storage.
TEST(LuInplace, SmallerSystemInAReusedBufferMatchesAFreshOne) {
  ace::util::Rng rng(47);
  const std::size_t big = 9;
  const std::size_t small = 4;
  std::vector<double> buffer = row_major(random_matrix(rng, big));
  std::vector<std::size_t> perm(big);
  ASSERT_TRUE(la::lu_factor_inplace(buffer.data(), big, perm.data()));

  const std::vector<double> a = row_major(random_matrix(rng, small));
  std::copy(a.begin(), a.end(), buffer.begin());
  ASSERT_TRUE(la::lu_factor_inplace(buffer.data(), small, perm.data()));
  std::vector<double> fresh = a;
  std::vector<std::size_t> fresh_perm(small);
  ASSERT_TRUE(la::lu_factor_inplace(fresh.data(), small, fresh_perm.data()));
  for (std::size_t i = 0; i < small * small; ++i)
    EXPECT_EQ(bits(buffer[i]), bits(fresh[i])) << i;
  EXPECT_TRUE(std::equal(fresh_perm.begin(), fresh_perm.end(), perm.begin()));
}

/// The ordinary-kriging system of paper Eq. 9–10 over n distinct integer
/// configurations: Γ_ij = γ(‖x_i − x_j‖₁) with the linear variogram
/// γ(h) = h (so Γ_ij is the kriging layer's L1 distance), bordered by a row and column of ones for the unbiasedness
/// constraint. The matrix is symmetric with a zero diagonal and is
/// indefinite, so only a pivoted LU can factor it.
class OrdinaryKrigingSystemTest : public ::testing::TestWithParam<std::size_t> {
 protected:
  void SetUp() override {
    const std::size_t n = GetParam();
    ace::util::Rng rng(n * 7919 + 1);
    while (points_.size() < n) {
      std::vector<double> p(3);
      for (double& v : p) v = rng.uniform_int(0, 8);
      if (std::find(points_.begin(), points_.end(), p) == points_.end())
        points_.push_back(p);
    }
    system_ = Matrix(n + 1, n + 1);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j)
        system_(i, j) = ace::kriging::l1_distance(points_[i], points_[j]);
      system_(i, n) = 1.0;
      system_(n, i) = 1.0;
    }
  }

  /// Right-hand side [γ(x_i, target)…, 1].
  Vector rhs(const std::vector<double>& target) const {
    Vector b(points_.size() + 1);
    for (std::size_t i = 0; i < points_.size(); ++i)
      b[i] = ace::kriging::l1_distance(points_[i], target);
    b[points_.size()] = 1.0;
    return b;
  }

  std::vector<std::vector<double>> points_;
  Matrix system_;
};

TEST_P(OrdinaryKrigingSystemTest, SolvesWithWeightsSummingToOne) {
  const std::size_t n = GetParam();
  const LuDecomposition lu(system_);
  ASSERT_FALSE(lu.singular());
  const std::vector<double> target = {4.0, 4.0, 4.0};
  const Vector b = rhs(target);
  const Vector x = lu.solve(b);
  EXPECT_LT((system_ * x - b).norm_inf(), 1e-9);
  double weight_sum = 0.0;
  for (std::size_t i = 0; i < n; ++i) weight_sum += x[i];
  EXPECT_NEAR(weight_sum, 1.0, 1e-9);
}

TEST_P(OrdinaryKrigingSystemTest, InterpolatesExactlyAtSupportPoints) {
  // Kriging is an exact interpolator: at a support point the weights are
  // the unit vector on that point and the Lagrange multiplier is zero.
  const std::size_t n = GetParam();
  const LuDecomposition lu(system_);
  ASSERT_FALSE(lu.singular());
  for (std::size_t k = 0; k < n; ++k) {
    const Vector x = lu.solve(rhs(points_[k]));
    for (std::size_t i = 0; i <= n; ++i)
      EXPECT_NEAR(x[i], i == k ? 1.0 : 0.0, 1e-9)
          << "support point " << k << ", entry " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, OrdinaryKrigingSystemTest,
                         ::testing::Values<std::size_t>(1, 2, 3, 4, 7, 12,
                                                        20));

}  // namespace
