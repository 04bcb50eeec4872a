#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <vector>

#include "linalg/lu.hpp"
#include "linalg/matrix.hpp"
#include "linalg/vector.hpp"

namespace {

using ace::linalg::Matrix;
using ace::linalg::Vector;

TEST(Vector, ConstructionAndAccess) {
  Vector v(3, 1.5);
  EXPECT_EQ(v.size(), 3u);
  EXPECT_DOUBLE_EQ(v[2], 1.5);
  v[1] = -2.0;
  EXPECT_DOUBLE_EQ(v[1], -2.0);
  EXPECT_THROW((void)v[3], std::out_of_range);
  Vector init{1.0, 2.0, 3.0};
  EXPECT_DOUBLE_EQ(init[1], 2.0);
}

// The residual arithmetic the oracle tests use: A·x − b and its max-abs
// norm.
TEST(Vector, DifferenceAndInfinityNorm) {
  const Vector a{1.0, 2.0};
  const Vector b{3.0, -1.0};
  EXPECT_EQ(a - b, Vector({-2.0, 3.0}));
  EXPECT_DOUBLE_EQ((a - b).norm_inf(), 3.0);
  EXPECT_DOUBLE_EQ(Vector{}.norm_inf(), 0.0);
  EXPECT_THROW((void)(a - Vector{1.0}), std::invalid_argument);
}

TEST(Matrix, ConstructionAndAccess) {
  Matrix m(2, 3, 0.5);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_FALSE(m.square());
  EXPECT_DOUBLE_EQ(m(1, 2), 0.5);
  m(0, 0) = 7.0;
  EXPECT_DOUBLE_EQ(m(0, 0), 7.0);
  EXPECT_THROW((void)m(2, 0), std::out_of_range);
  EXPECT_THROW((void)m(0, 3), std::out_of_range);
  const Matrix& cm = m;
  EXPECT_THROW((void)cm(2, 0), std::out_of_range);
  EXPECT_THROW((void)cm(0, 3), std::out_of_range);
}

TEST(Matrix, InitializerListAndRagged) {
  Matrix m{{1.0, 2.0}, {3.0, 4.0}};
  EXPECT_DOUBLE_EQ(m(1, 0), 3.0);
  EXPECT_THROW((Matrix{{1.0, 2.0}, {3.0}}), std::invalid_argument);
}

TEST(Matrix, Identity) {
  const Matrix eye = Matrix::identity(3);
  EXPECT_DOUBLE_EQ(eye(1, 1), 1.0);
  EXPECT_DOUBLE_EQ(eye(0, 1), 0.0);
}

TEST(Matrix, ProductWithIdentityIsExact) {
  const Matrix m{{1.5, -2.0, 0.25}, {3.0, 7.0, -0.5}, {0.1, 0.2, 0.3}};
  const Matrix eye = Matrix::identity(3);
  EXPECT_EQ(m * eye, m);
  EXPECT_EQ(eye * m, m);
  const Vector v{0.1, -0.7, 2.5};
  EXPECT_EQ(eye * v, v);
}

TEST(Matrix, MatrixVectorProduct) {
  Matrix m{{1.0, 2.0}, {3.0, 4.0}};
  const Vector r = m * Vector{1.0, 1.0};
  EXPECT_DOUBLE_EQ(r[0], 3.0);
  EXPECT_DOUBLE_EQ(r[1], 7.0);
  EXPECT_THROW((void)(m * Vector{1.0}), std::invalid_argument);
}

TEST(Matrix, MatrixMatrixProduct) {
  Matrix a{{1.0, 2.0}, {3.0, 4.0}};
  Matrix b{{0.0, 1.0}, {1.0, 0.0}};
  const Matrix c = a * b;
  EXPECT_DOUBLE_EQ(c(0, 0), 2.0);
  EXPECT_DOUBLE_EQ(c(0, 1), 1.0);
  EXPECT_DOUBLE_EQ(c(1, 0), 4.0);
  EXPECT_DOUBLE_EQ(c(1, 1), 3.0);
  Matrix bad(3, 3);
  EXPECT_THROW((void)(a * bad), std::invalid_argument);
  // Identity is neutral.
  const Matrix e = a * Matrix::identity(2);
  EXPECT_EQ(e, a);
}

// The four-lane max_abs returns the serial std::max chain's value bit for
// bit, NaN entries skipped, at every length and remainder.
TEST(Matrix, MaxAbsMatchesSerialChain) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<double> xs = {-0.0, 3.5, nan, -7.25, 0.0, 1e-310, -inf,
                            2.0,  nan, -9.5, 4.0,  -1e300, 6.0};
  for (std::size_t rotate = 0; rotate < xs.size(); ++rotate) {
    std::rotate(xs.begin(), xs.begin() + 1, xs.end());
    for (std::size_t count = 0; count <= xs.size(); ++count) {
      double serial = 0.0;
      for (std::size_t i = 0; i < count; ++i)
        serial = std::max(serial, std::abs(xs[i]));
      EXPECT_EQ(std::bit_cast<std::uint64_t>(ace::linalg::max_abs(xs.data(), count)),
                std::bit_cast<std::uint64_t>(serial))
          << "count " << count << " rotate " << rotate;
    }
  }
}

}  // namespace
