// Cholesky factorization for symmetric positive-definite systems. No
// library path factors with it: the bordered kriging matrix is indefinite
// (pivoted LU, linalg/lu.hpp), and the variogram fit (kriging/fit.cpp)
// solves its 2×2 normal equations in closed form. It is exercised by its
// own tests and the library-contract tests.
#pragma once

#include "linalg/matrix.hpp"
#include "linalg/vector.hpp"

namespace ace::linalg {

/// Cholesky factorization A = L·Lᵀ of a symmetric positive-definite matrix.
///
/// `failed()` reports loss of positive definiteness; solves then throw.
class CholeskyDecomposition {
 public:
  /// Factorize. Only the lower triangle of `a` is read.
  /// Throws std::invalid_argument if not square.
  explicit CholeskyDecomposition(const Matrix& a);

  bool failed() const { return failed_; }
  std::size_t size() const { return l_.rows(); }

  /// Solve A·x = b. Throws on failure flag or size mismatch.
  Vector solve(const Vector& b) const;

  /// Lower-triangular factor.
  const Matrix& l() const { return l_; }

 private:
  Matrix l_;
  bool failed_ = false;
};

}  // namespace ace::linalg
