// Value-owning LU over the library's in-place kernels (src/linalg/lu.hpp)
// — the solve the tests' oracle runs. It delegates to the same kernels
// kriging::KrigingSystem calls, so both perform the same floating-point
// operations in the same order and their factors and solutions are
// bit-identical.
#pragma once

#include <cstddef>
#include <vector>

#include "linalg/lu.hpp"
#include "linalg/matrix.hpp"
#include "linalg/vector.hpp"

namespace ace::linalg {

/// LU factorization P·A = L·U with partial (row) pivoting.
///
/// Construction factorizes eagerly. `singular()` reports whether a pivot
/// collapsed below kPivotTolerance relative to max|A|; solves on a
/// singular factorization throw std::runtime_error.
class LuDecomposition {
 public:
  /// Factorize a square matrix. Throws std::invalid_argument if not square.
  explicit LuDecomposition(Matrix a);

  bool singular() const { return singular_; }
  std::size_t size() const { return lu_.rows(); }

  /// Solve A·x = b. Throws on singularity or size mismatch.
  Vector solve(const Vector& b) const;

  /// Diagonal of A⁻¹ (lu_inverse_diagonal over this factor).
  Vector inverse_diagonal() const;

  /// Crude reciprocal condition estimate: min|pivot| / max|pivot|.
  double rcond_estimate() const;

 private:
  Matrix lu_;
  std::vector<std::size_t> perm_;
  bool singular_ = false;
};

}  // namespace ace::linalg
