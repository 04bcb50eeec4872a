// LU decomposition with partial pivoting — the workhorse behind the
// kriging system solve (the Γ matrix of paper Eq. 9 is symmetric but
// indefinite because of the Lagrange-multiplier border, so Cholesky does
// not apply; LU with pivoting does).
//
// There is one LU: the in-place kernels below work on caller-owned
// row-major buffers, so kriging::KrigingSystem can factor and solve in
// memory it reuses across queries without allocating, and
// LuDecomposition is a value-owning wrapper that delegates to the same
// kernels. Both therefore run the same floating-point operations in the
// same order and produce bit-identical factors and solutions.
#pragma once

#include <cstddef>
#include <vector>

#include "linalg/matrix.hpp"
#include "linalg/vector.hpp"

namespace ace::linalg {

/// Factor the row-major n×n matrix `a` in place, P·A = L·U: on success `a`
/// holds L strictly below the diagonal (unit diagonal implied) and U on
/// and above it, `perm` (n entries) the row permutation and `perm_sign`
/// its sign. Returns false — leaving `a` partially factored — when a pivot
/// falls to or below `pivot_tolerance` · max|a|.
bool lu_factor_inplace(double* a, std::size_t n, std::size_t* perm,
                       int& perm_sign, double pivot_tolerance = 1e-13);

/// Solve A·x = b against a factor from lu_factor_inplace. `x` (n entries)
/// must not alias `b`.
void lu_solve_inplace(const double* lu, std::size_t n, const std::size_t* perm,
                      const double* b, double* x);

/// Diagonal of A⁻¹ into `diag`, one unit-vector solve per entry against
/// the factor — O(n²) per entry, no refactorization. `e` and `x` are n
/// entries of scratch each. Together with a single solve of A·u = z this
/// yields every leave-one-out residual of a kriging system via Dubrule's
/// identity (kriging::KrigingSystem::loo_residuals), where each scratch
/// refit would cost O(n³).
void lu_inverse_diagonal(const double* lu, std::size_t n,
                         const std::size_t* perm, double* e, double* x,
                         double* diag);

/// Crude reciprocal condition estimate of a factor: min|pivot| /
/// max|pivot| over U's diagonal (0 when n is 0 or every pivot is 0).
double lu_rcond_estimate(const double* lu, std::size_t n);

/// LU factorization P·A = L·U with partial (row) pivoting.
///
/// Construction factorizes eagerly. `singular()` reports whether a pivot
/// collapsed below the relative tolerance; solves on a singular
/// factorization throw std::runtime_error.
class LuDecomposition {
 public:
  /// Factorize a square matrix. Throws std::invalid_argument if not square.
  explicit LuDecomposition(Matrix a, double pivot_tolerance = 1e-13);

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
