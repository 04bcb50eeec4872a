#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "linalg/cholesky.hpp"
#include "util/rng.hpp"

namespace {

using ace::linalg::CholeskyDecomposition;
using ace::linalg::Matrix;
using ace::linalg::Vector;

Matrix random_spd(ace::util::Rng& rng, std::size_t n) {
  Matrix b(n, n);
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t c = 0; c < n; ++c) b(r, c) = rng.uniform(-1.0, 1.0);
  Matrix spd = b.transposed() * b;
  for (std::size_t i = 0; i < n; ++i) spd(i, i) += 1.0;
  return spd;
}

TEST(Cholesky, RejectsNonSquare) {
  EXPECT_THROW(CholeskyDecomposition(Matrix(2, 3)), std::invalid_argument);
}

TEST(Cholesky, FactorizesKnownSpd) {
  Matrix a{{4.0, 2.0}, {2.0, 3.0}};
  CholeskyDecomposition chol(a);
  ASSERT_FALSE(chol.failed());
  EXPECT_NEAR(chol.l()(0, 0), 2.0, 1e-12);
  EXPECT_NEAR(chol.l()(1, 0), 1.0, 1e-12);
  EXPECT_NEAR(chol.l()(1, 1), std::sqrt(2.0), 1e-12);
}

TEST(Cholesky, FailsOnIndefinite) {
  Matrix a{{1.0, 2.0}, {2.0, 1.0}};  // Eigenvalues 3 and -1.
  CholeskyDecomposition chol(a);
  EXPECT_TRUE(chol.failed());
  EXPECT_THROW((void)chol.solve(Vector{1.0, 1.0}), std::runtime_error);
}

TEST(Cholesky, SolveSizeMismatch) {
  CholeskyDecomposition chol(Matrix::identity(3));
  EXPECT_THROW((void)chol.solve(Vector{1.0}), std::invalid_argument);
}

class CholeskyResidualTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(CholeskyResidualTest, SolvesRandomSpdSystems) {
  ace::util::Rng rng(GetParam() * 7919 + 1);
  const std::size_t n = GetParam();
  const Matrix a = random_spd(rng, n);
  Vector b(n);
  for (std::size_t i = 0; i < n; ++i) b[i] = rng.uniform(-3.0, 3.0);
  CholeskyDecomposition chol(a);
  ASSERT_FALSE(chol.failed());
  const Vector x = chol.solve(b);
  EXPECT_LT((a * x - b).norm_inf(), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Sizes, CholeskyResidualTest,
                         ::testing::Values<std::size_t>(1, 2, 4, 7, 12, 20));

}  // namespace
