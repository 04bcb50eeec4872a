// Ridge-fallback solve — the tests' oracle for the ladder that
// kriging::KrigingSystem runs rung for rung on its own buffers
// (tests/test_kriging_system.cpp compares the two bit for bit).
//
// The bordered variogram matrix Γ (paper Eq. 9) can become numerically
// singular when support configurations are nearly collinear or the fitted
// variogram degenerates. robust_solve() first attempts a plain pivoted LU
// solve and, on singularity, retries with growing Tikhonov (ridge)
// regularization on the non-border block. The caller can detect the
// fallback (and e.g. fall back to simulation) through the report.
#pragma once

#include <optional>

#include "linalg/matrix.hpp"
#include "linalg/vector.hpp"

namespace ace::linalg {

/// Outcome of robust_solve().
struct SolveReport {
  bool ok = false;            ///< Solution produced.
  bool regularized = false;   ///< Ridge fallback was needed.
  double ridge = 0.0;         ///< Ridge magnitude actually used.
  double rcond = 0.0;         ///< Pivot-ratio condition estimate of the solve.
};

/// Solve A·x = b with LU; on singularity — or when the solution's
/// max-abs entry exceeds 1e6 (the signature of a near-singular system
/// producing garbage) — retry with A + ridge·max(|A|, 1)·I, ridge =
/// 1e-10 … 1e-2 growing ×100. `border` marks how many
/// trailing rows/cols form a Lagrange border that must NOT be regularized
/// (kriging's unbiasedness constraint rows).
///
/// Returns nullopt (report.ok = false) if no attempt produced a finite,
/// norm-bounded solution.
std::optional<Vector> robust_solve(const Matrix& a, const Vector& b,
                                   SolveReport& report,
                                   std::size_t border = 0);

}  // namespace ace::linalg
