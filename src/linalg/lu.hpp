// LU decomposition with partial pivoting — the workhorse behind the
// kriging system solve (the Γ matrix of paper Eq. 9 is symmetric but
// indefinite because of the Lagrange-multiplier border, so Cholesky does
// not apply; LU with pivoting does).
//
// There is one LU: the in-place kernels below work on caller-owned
// row-major buffers, so kriging::KrigingSystem can factor and solve in
// memory it reuses across queries without allocating. The tests' value-
// owning oracle (tests/support: LuDecomposition, robust_solve) delegates
// to the same kernels.
#pragma once

#include <cstddef>

namespace ace::linalg {

/// A pivot at or below kPivotTolerance · max|a| counts as singular.
inline constexpr double kPivotTolerance = 1e-13;

/// Largest |x| over `count` contiguous entries (NaN entries are skipped;
/// 0 when there are none): the pivot scale of lu_factor_inplace.
double max_abs(const double* data, std::size_t count);

/// Factor the row-major n×n matrix `a` in place, P·A = L·U: on success `a`
/// holds L strictly below the diagonal (unit diagonal implied) and U on
/// and above it, and `perm` (n entries) the row permutation. Returns
/// false — leaving `a` partially factored — when a pivot falls to or
/// below kPivotTolerance · max|a|.
bool lu_factor_inplace(double* a, std::size_t n, std::size_t* perm);

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

}  // namespace ace::linalg
