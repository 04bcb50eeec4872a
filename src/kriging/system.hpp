// Shared kriging-system layer: one owner for system assembly and the
// robust-solve ladder across all three estimators.
//
// ordinary_kriging / simple_kriging / universal_kriging used to each
// assemble their (bordered) matrix and call linalg::robust_solve — three
// copies of the same logic paying a full O(N³) factorization per query
// even when consecutive queries share an almost identical support set.
// KrigingSystem centralizes:
//
//   * assembly — variogram block (γ for ordinary/universal, the
//     covariance C(d) = max(sill − γ(d), 0) for simple), the Lagrange
//     ones-border (ordinary), and the drift columns F (universal);
//   * the ridge-fallback ladder of linalg::robust_solve, replicated
//     rung-for-rung (plain solve, then ridge = 1e-10 … 1e-2 ×100 on the
//     non-border diagonal, acceptability = finite and max-abs <= 1e6) so
//     callers see the exact legacy semantics;
//   * coincident-support dedupe — duplicate points used to degenerate the
//     system and were only avoided by the store's exact-match memo; here
//     the first occurrence wins, duplicates get weight 0;
//   * incremental support editing (Layout::kIncremental): append_point()
//     extends the underlying linalg::BorderedLdlt by one Schur pivot
//     instead of refactorizing, remove_point() downdates, and the
//     dse::FactorCache reuses whole systems across queries whose
//     neighbourhoods overlap.
//
// Layout::kAllInBase puts the entire system into the factorization's base
// block: every solve then reproduces the legacy direct path bit-for-bit
// (same matrix, same pivoted LU, same ladder), which is what keeps
// optimizer decisions identical whether or not the factor cache is on.
// Within one layout, a factor built at some ladder rung is kept and
// re-solved for later queries (the matrix — hence its singularity and its
// factorization — does not depend on the query, only the acceptability
// check does), so repeated queries against one support set skip the
// refactorization entirely.
//
// Per-system costs are kept to the arithmetic the solve needs (DESIGN.md
// §10): the support moves in (no copy), its SoA columns live in one
// buffer, distances run through the util::simd kernels for the built-in
// metrics, and the model entry γ(d) (or the covariance) is memoised per
// system for small integer distances — lattice neighbourhoods take only a
// few distinct values — returning exactly the double the model produced.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "kriging/empirical_variogram.hpp"
#include "kriging/ordinary_kriging.hpp"
#include "kriging/universal_kriging.hpp"
#include "kriging/variogram_model.hpp"
#include "linalg/ldlt.hpp"

namespace ace::kriging {

/// Which estimator's system to assemble.
enum class SystemKind {
  kOrdinary,   ///< Bordered Γ of paper Eq. 9 (ones-border, Lagrange).
  kSimple,     ///< Covariance system C·w = c_q (no border).
  kUniversal,  ///< Drift-bordered [Γ F; Fᵀ 0] system.
};

/// Full description of one kriging system's estimator.
struct SystemSpec {
  SystemKind kind = SystemKind::kOrdinary;
  DriftKind drift = DriftKind::kConstant;  ///< Universal kriging only.
  double sill = 0.0;                       ///< Simple kriging only.
  double mean = 0.0;                       ///< Simple kriging only.
  /// Stochastic-kriging measurement-noise variance τ² (Wang & Haaland,
  /// PAPERS.md) for intrinsically noisy metrics. Applied to the system
  /// diagonal only: covariance form gains C_ii + τ², and by the constant-
  /// shift invariance of the constrained γ-form (Γ + c·J leaves the
  /// weights unchanged under Σw = 1) the equivalent variogram-form move is
  /// γ_ii − τ². Off-diagonals and query right-hand sides are untouched, so
  /// τ² = 0 assembles bit-identically to the pre-nugget system. The
  /// predictor then smooths instead of honouring noisy support exactly.
  double noise_nugget = 0.0;
};

/// Factorization-work counters, harvested by KrigingPolicy into
/// PolicyStats (the bench/solver_cache acceptance metric).
struct SystemStats {
  std::size_t full_factorizations = 0;  ///< Whole-system factor builds.
  std::size_t appends = 0;              ///< One-point Schur extensions.
  std::size_t removals = 0;             ///< One-point downdates.
  std::size_t solves = 0;               ///< Queries answered.
};

/// A reusable kriging system over one support set.
class KrigingSystem {
 public:
  enum class Layout {
    kAllInBase,    ///< Whole system in the LU base: legacy bit-identity.
    kIncremental,  ///< Minimal base + Schur appends: cheap extend/downdate.
  };

  /// Builds (but does not yet factor) the system. Coincident support
  /// points are deduplicated — the first occurrence becomes the support
  /// point, later copies are recorded as zero-weight slots. Throws
  /// std::invalid_argument on empty/ragged support, size mismatches, or
  /// (simple kriging) a non-positive sill.
  KrigingSystem(SystemSpec spec,
                std::vector<std::vector<double>> support_points,
                std::vector<double> support_values,
                const VariogramModel& model,
                DistanceFn distance = l1_distance,
                Layout layout = Layout::kAllInBase);

  KrigingSystem(const KrigingSystem&) = delete;
  KrigingSystem& operator=(const KrigingSystem&) = delete;

  /// Estimate at `query` (paper Eq. 8-10 for ordinary kriging). Returns
  /// nullopt when no ladder rung produces an acceptable solution — the
  /// caller falls back to simulation. The result's weights are indexed by
  /// support *slot* (construction order plus append order; deduplicated
  /// slots hold 0).
  std::optional<KrigingResult> query(const std::vector<double>& q);

  /// Add one support slot. A point coincident with an existing one
  /// becomes a zero-weight slot (no factor change). In the kIncremental
  /// layout a genuinely new point extends the factor by one Schur pivot;
  /// a failed extension (or the kAllInBase layout) invalidates the factor
  /// so the next query refactorizes. Dimension mismatches throw.
  void append_point(std::vector<double> point, double value);

  /// True when the slot's point entered the factorization as an appended
  /// row — i.e. remove_point(slot) is a cheap downdate.
  bool removable(std::size_t slot) const;

  /// Drop one support slot. Zero-weight duplicate slots always succeed;
  /// appended points downdate the factor; base points (or a degenerate
  /// downdate) return false and leave the system unchanged.
  bool remove_point(std::size_t slot);

  /// Leave-one-out cross-validation over the unique support, from one
  /// factorization. Entry i describes the system with unique point i
  /// deleted, predicting at that point's location.
  struct LooReport {
    std::vector<double> residuals;  ///< z_i − ẑ₍ᵢ₎ per unique point.
    std::vector<double> variances;  ///< LOO kriging variance σ²₍ᵢ₎.
    double shift = 0.0;             ///< Ladder rung the factor used.
    bool regularized = false;       ///< shift > 0.
  };

  /// All unique-support LOO residuals via Dubrule's identity: with
  /// B = A⁻¹ of the assembled system and z̃ the (centred) values padded
  /// with border zeros, e_i = [B·z̃]_i / B_ii and σ²₍ᵢ₎ = ±1/B_ii — each
  /// residual costs one O(n²) solve against the already-built factor
  /// instead of the O(n³) scratch refit it is provably equal to
  /// (tests/test_kriging_loo.cpp pins the match at 1e-10). Climbs the same
  /// ridge ladder as query(); the identity is exact for whichever shifted
  /// matrix actually factored, and the report records that shift. Returns
  /// nullopt below 2 unique points or when no rung yields finite,
  /// non-degenerate diagonals.
  std::optional<LooReport> loo_residuals();

  std::size_t support_size() const { return slots_.size(); }
  /// Unique support points actually in the system (dedupe applied).
  std::size_t unique_size() const { return points_.size(); }
  std::size_t dimension() const { return dim_; }
  const SystemSpec& spec() const { return spec_; }
  const SystemStats& stats() const { return stats_; }

 private:
  struct Slot {
    std::size_t unique = 0;  ///< Index into points_/values_.
    bool owner = false;      ///< First occurrence: carries the weight.
  };

  /// One cached factorization at one ridge shift.
  struct Factor {
    double shift = 0.0;  ///< Absolute diagonal shift (ridge · scale).
    std::unique_ptr<linalg::BorderedLdlt> ldlt;
  };

  /// Distances below this that are exact non-negative integers have their
  /// entry memoised (lattice L1 distances; one bit of entry_known_ each).
  static constexpr std::size_t kEntryMemo = 64;

  /// Matrix entry between unique points i and j (γ or covariance).
  double pair_entry(std::size_t i, std::size_t j) const;
  /// Entry as a function of an already-computed distance, memoised for
  /// small integer distances (the model is fixed for the system's life).
  double entry_of(double d) const;
  /// The entry straight from the model: γ(d), or the covariance.
  double model_entry(double d) const;
  /// Diagonal entry of a support point: entry_of(0) with the noise nugget
  /// folded in (+τ² covariance form, −τ² variogram form; exact no-op at 0).
  double diagonal_entry() const;
  /// Distances from x to unique points [first, n), written to out —
  /// batched over cols_ for the built-in distances.
  /// `cols` is scratch for the kernel's column pointers.
  void distances_to(const std::vector<double>& x, std::size_t first,
                    std::size_t n, std::vector<const double*>& cols,
                    double* out) const;
  /// Rebuild the SoA column mirror of points_ with room for `stride`
  /// points per column.
  void rebuild_columns(std::size_t stride);
  /// Entry l < border_ of the drift basis f(x) under the effective drift.
  double drift_entry(const std::vector<double>& x, std::size_t l) const;

  /// Matrix index of unique point i under the current layout.
  std::size_t matrix_index(std::size_t i) const;
  std::size_t border_cols() const { return border_; }
  std::size_t system_size() const { return points_.size() + border_; }

  /// Assemble the system over the first n unique points in layout order,
  /// with `shift` on every non-border diagonal: n = unique_size() gives
  /// the full matrix, n = base_points_ the incremental layout's base block.
  linalg::Matrix assemble(double shift, std::size_t n) const;
  /// Assemble the right-hand side for a query, in layout order.
  linalg::Vector assemble_rhs(const std::vector<double>& q) const;

  /// Coupling column of unique point i against the current factor.
  std::vector<double> coupling_of(std::size_t i) const;

  /// Turn one accepted ladder solution into a KrigingResult (estimate,
  /// variance, slot-indexed weights, contracts).
  std::optional<KrigingResult> finalize(const std::vector<double>& q,
                                        const linalg::Vector& rhs,
                                        const linalg::Vector& x, double shift,
                                        const linalg::BorderedLdlt* used) const;

  /// Find or build the factor at `shift`; nullptr when singular there.
  linalg::BorderedLdlt* factor_at(double shift);
  /// Drop all cached factors and singularity memos (support changed).
  void invalidate_factors();
  /// Recompute the effective drift / border width from the unique count;
  /// returns true when the border width changed (factor invalid).
  bool refresh_border();

  /// Scale for the ridge ladder: max(|A|, 1) of the unshifted matrix —
  /// the exact scale linalg::robust_solve uses.
  double ladder_scale() const;

  SystemSpec spec_;
  DriftKind effective_drift_ = DriftKind::kConstant;
  std::unique_ptr<VariogramModel> model_;
  DistanceFn distance_;
  Layout layout_;
  std::size_t dim_ = 0;

  std::vector<std::vector<double>> points_;  ///< Unique, insertion order.
  std::vector<double> values_;               ///< Values of unique points.
  /// Columnar (SoA) mirror of points_ in one buffer: cols_[d·stride_ + u]
  /// == points_[u][d], kept in lockstep so assembly streams contiguous
  /// columns per dimension.
  std::vector<double> cols_;
  std::size_t stride_ = 0;  ///< Points of room per column (>= unique_size()).
  /// Built-in distances batch through the util::simd column kernels (bit-
  /// identical to the functor); custom ones are called per pair.
  DistanceKind distance_kind_ = DistanceKind::kCustom;
  std::vector<Slot> slots_;                  ///< Caller-visible order.

  std::size_t border_ = 0;     ///< Lagrange/drift columns.
  std::size_t base_points_ = 0;  ///< Unique points inside the base block.

  std::vector<Factor> factors_;          ///< Plain + ladder-rung factors.
  std::vector<double> singular_shifts_;  ///< Shifts known to be singular.
  SystemStats stats_;

  /// entry_of memo. Only the non-const entry points (query, append_point,
  /// loo_residuals, factor builds) reach it, so a system shared read-only
  /// across threads never writes it.
  mutable std::array<double, kEntryMemo> entry_memo_{};
  mutable std::uint64_t entry_known_ = 0;
};

}  // namespace ace::kriging
