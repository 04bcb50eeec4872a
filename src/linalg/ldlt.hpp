// Incremental bordered factorization for kriging systems.
//
// The bordered Γ matrix of paper Eq. 9 is symmetric but indefinite (the
// Lagrange border carries a zero diagonal), so neither Cholesky nor an
// unpivoted LDLT applies to the whole matrix: the very first diagonal
// entry is γ(0) = nugget, which is frequently 0. BorderedLdlt therefore
// factors a *base block* — everything known at construction, border rows
// included — with pivoted LU, and maintains the trailing appended points
// through the Schur complement
//   S = C − Uᵀ·B⁻¹·U
// of the 2×2 block partition [B U; Uᵀ C], where S itself is kept as a
// small dense LDLT that grows by one pivot per append_point() and shrinks
// by one per remove_point(). Appending therefore costs one base solve
// O(n²) instead of the O(n³) refactorization a from-scratch LU pays, which
// is what makes the policy-level factor cache (dse/factor_cache) worth
// keying on support-index sets.
//
// With zero appended points solve() is *bit-identical* to
// LuDecomposition(base).solve(b) — the KrigingSystem layer relies on this
// to reproduce the legacy direct-solve numerics exactly. With appended
// points the block solve is followed by one iterative-refinement sweep
// against the stored assembled matrix, keeping the incremental solution
// within ~1e-12 of the from-scratch one (tests/test_linalg_ldlt.cpp).
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "linalg/lu.hpp"
#include "linalg/matrix.hpp"
#include "linalg/vector.hpp"

namespace ace::linalg {

/// Growable symmetric factorization: pivoted-LU base block plus an
/// incremental LDLT of the Schur complement of appended rows/columns.
///
/// The caller applies any ridge shift to the base block *before*
/// construction; `append_shift` is the shift added to the diagonal of
/// every appended point (appended points are always core — never border —
/// so a uniform shift keeps the assembled matrix equal to A + shift·I_core
/// at every size).
class BorderedLdlt {
 public:
  /// Factor the base block eagerly. `ok()` reports whether the pivoted LU
  /// succeeded; all other operations require ok().
  explicit BorderedLdlt(Matrix base, double append_shift = 0.0,
                        double pivot_tolerance = 1e-13);

  /// Base factorization succeeded (appends can only refine, never repair).
  bool ok() const { return ok_; }

  std::size_t base_size() const { return base_n_; }
  std::size_t appended() const { return ldl_d_.size(); }
  std::size_t size() const { return base_n_ + appended(); }

  /// Extend the factorization by one symmetric row/column. `coupling`
  /// holds the new point's off-diagonal entries against every existing
  /// index (length size()); `diagonal` is its raw diagonal entry (the
  /// append shift is added internally). Returns false — leaving the
  /// factor untouched — when the new Schur pivot degenerates (e.g. the
  /// appended point coincides with an existing one).
  bool append_point(const std::vector<double>& coupling, double diagonal);

  /// Downdate: drop the `appended_index`-th appended point (0-based among
  /// appended points; base points cannot be removed). The remaining Schur
  /// complement is refactored in place — O(k³) on the k appended points
  /// only, never the base. Returns false (factor unchanged) on an
  /// out-of-range index or a degenerate refactorization.
  bool remove_point(std::size_t appended_index);

  /// Solve A·x = b for the currently assembled matrix. Requires ok() and
  /// b.size() == size(); throws std::invalid_argument/std::runtime_error
  /// otherwise (mirroring LuDecomposition::solve).
  Vector solve(const Vector& b) const;

  /// Pivot-ratio condition estimate over base LU pivots and Schur pivots
  /// combined — the incremental analogue of LuDecomposition's estimate.
  double rcond_estimate() const;

  /// Diagonal of A⁻¹ for the currently assembled matrix (appends
  /// included), one unit-vector solve per entry against the existing
  /// factorization — O(n²) per entry instead of the O(n³) a scratch
  /// refactorization per leave-one-out subset would cost. Entry i uses the
  /// same refined solve path as solve(), so with zero appended points it is
  /// bit-identical to LuDecomposition::inverse_diagonal()[i].
  Vector inverse_diagonal() const;

  /// The assembled matrix the factor currently represents (base shift and
  /// append shifts included). Exposed for verification and refinement.
  const Matrix& assembled() const { return a_; }

 private:
  /// Block solve without the refinement sweep.
  Vector block_solve(const Vector& b) const;

  /// Refactor the Schur LDLT from s_; returns false on pivot collapse.
  bool refactor_schur();

  Matrix a_;                       ///< Assembled matrix, grown per append.
  std::optional<LuDecomposition> lu_;  ///< Base block factor.
  std::size_t base_n_ = 0;
  double append_shift_ = 0.0;
  double tol_ = 1e-13;
  bool ok_ = false;

  /// y_j = B⁻¹·u_j for each appended point's base coupling u_j.
  std::vector<Vector> ys_;
  /// Dense Schur complement S (k×k), kept for downdates.
  std::vector<std::vector<double>> s_;
  /// Unit-lower LDLT factors of S: L (strictly lower rows) and pivots d.
  std::vector<std::vector<double>> ldl_l_;
  std::vector<double> ldl_d_;
};

}  // namespace ace::linalg
