// The kriging-system layer: one owner for the assembly and the
// robust-solve ladder of the paper's ordinary kriging.
//
// KrigingSystem centralizes:
//
//   * assembly — the variogram block γ and the Lagrange ones-border of the
//     bordered Γ (paper Eq. 9);
//   * the ridge-fallback ladder of linalg::robust_solve, replicated
//     rung-for-rung (plain solve, then ridge = 1e-10 … 1e-2 ×100 on the
//     non-border diagonal, acceptability = finite and max-abs <= 1e6) so
//     callers see the exact legacy semantics;
//   * coincident-support dedupe — duplicate points would degenerate the
//     system; the first occurrence wins, duplicates get weight 0.
//
// It is a workspace: bound to a model once (set_model clones the model
// and clears the γ memo), then reloaded with a support set per query.
// load(points, values) copies rows in; load(n, dim, fill) hands the
// caller the SoA column and value buffers to write directly
// (dse::SimulationStore::gather_columns). Every buffer — the columns, Γ,
// the factors, the right-hand side and the solution — keeps its capacity
// across loads, and query(q, out) writes into a caller-owned result, so
// once a workspace has held its largest support, reloading and solving at
// any size up to it allocates nothing (tests/test_kriging_alloc.cpp).
// dse::KrigingPolicy owns one per policy.
//
// Each solve runs the floating-point operations of the direct path
// linalg::robust_solve takes on the same matrix: Γ assembled into a
// reused buffer and kept unshifted, copied with + shift on the core
// diagonal for each ladder rung, factored in place by
// linalg::lu_factor_inplace (the kernel behind LuDecomposition), and the
// same estimate and variance sums — so results are bit-identical to an
// independently assembled system (tests/test_kriging_system.cpp). Within
// one load the plain factor and the last ladder-rung factor are kept and
// re-solved for later queries (the matrix — hence its singularity and its
// factorization — does not depend on the query, only the acceptability
// check does), and rungs found singular are remembered.
//
// Per-system costs are kept to the arithmetic the solve needs (DESIGN.md
// §10): L1 distances — the only metric — run through the util::simd
// kernel over the SoA columns, and the model entry γ(d) is memoised for
// small integer distances — lattice neighbourhoods take only a few
// distinct values — returning exactly the double the model produced. The
// memo lives as long as the model binding, not one load.
//
// KrigingSystem is the kriging layer's only entry point: a one-shot
// estimate is the one-shot constructor followed by query(q).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "kriging/empirical_variogram.hpp"
#include "kriging/variogram_model.hpp"

namespace ace::kriging {

/// Result of one kriging interpolation (paper Eq. 3, 8-10).
struct KrigingResult {
  double estimate = 0.0;       ///< λ̂(e_i).
  double variance = 0.0;       ///< Kriging variance (>= 0 up to round-off).
  bool regularized = false;    ///< Ridge fallback was used on Γ.
  double ridge = 0.0;          ///< Diagonal shift used (0 when unregularized).
  double rcond = 0.0;          ///< Pivot-ratio condition estimate of the solve.
  std::vector<double> weights; ///< The μ_k of Eq. 3 (size N).
};

/// The estimator whose system is assembled. Ordinary kriging — the
/// bordered Γ of paper Eq. 9 (ones-border, Lagrange) — is the only one;
/// the enum stays because callers spell SystemSpec{SystemKind::kOrdinary}.
enum class SystemKind {
  kOrdinary,
};

/// Full description of one kriging system.
struct SystemSpec {
  SystemKind kind = SystemKind::kOrdinary;
  /// Stochastic-kriging measurement-noise variance τ² (Wang & Haaland,
  /// PAPERS.md) for intrinsically noisy metrics. In covariance form the
  /// diagonal would gain C_ii + τ²; by the constant-shift invariance of
  /// the constrained γ-form (Γ + c·J leaves the weights unchanged under
  /// Σw = 1) the equivalent variogram-form move is γ_ii − τ², applied to
  /// the diagonal only. Off-diagonals and query right-hand sides are
  /// untouched, so τ² = 0 assembles bit-identically to the pre-nugget
  /// system. The predictor then smooths instead of honouring noisy
  /// support exactly.
  double noise_nugget = 0.0;
};

/// Factorization-work counters, harvested by KrigingPolicy into
/// PolicyStats.
struct SystemStats {
  std::size_t full_factorizations = 0;  ///< Factor builds, singular included.
  std::size_t solves = 0;               ///< Queries answered.
};

/// A reusable kriging workspace over one support set at a time.
class KrigingSystem {
 public:
  /// An empty workspace bound to a model; load() a support set before
  /// querying. Throws std::invalid_argument on a negative/non-finite
  /// nugget. The L1Distance parameter carries no choice; it stays because
  /// callers (bench/e2e) pass kriging::l1_distance.
  KrigingSystem(SystemSpec spec, const VariogramModel& model,
                L1Distance = {});

  /// One-shot system: the workspace constructor followed by load().
  KrigingSystem(SystemSpec spec,
                const std::vector<std::vector<double>>& support_points,
                const std::vector<double>& support_values,
                const VariogramModel& model, L1Distance = {});

  KrigingSystem(const KrigingSystem&) = delete;
  KrigingSystem& operator=(const KrigingSystem&) = delete;

  /// Rebind to a new spec and model: clones the model and clears the
  /// γ memo. Validates like the constructor; the next query needs a load().
  void set_model(SystemSpec spec, const VariogramModel& model);

  /// Reload from row-form support. Coincident points are deduplicated —
  /// the first occurrence becomes the support point, later copies are
  /// zero-weight slots. Throws std::invalid_argument (workspace
  /// unchanged) on empty/ragged support or a size mismatch.
  void load(const std::vector<std::vector<double>>& support_points,
            const std::vector<double>& support_values);

  /// In-place reload of n points of dimension dim:
  /// `fill(columns, stride, values)` writes coordinate d of point k to
  /// columns[d·stride + k] and its value to values[k] (stride >= n is the
  /// workspace's column pitch); the points are then deduplicated and
  /// assembled like load(points, values). Throws std::invalid_argument
  /// when n is 0.
  template <class Fill>
  void load(std::size_t n, std::size_t dim, Fill&& fill) {
    begin_load(n, dim);
    fill(std::span<double>(cols_.data(), cols_.size()), stride_,
         std::span<double>(values_.data(), n));
    finish_load();
  }

  /// Estimate at `query` (paper Eq. 8-10) into `out`,
  /// reusing its weight buffer. Returns false — `out` then unspecified —
  /// when no ladder rung produces an acceptable solution; the caller falls
  /// back to simulation. Weights are indexed by support slot (load order;
  /// deduplicated slots hold 0).
  bool query(const std::vector<double>& q, KrigingResult& out);

  /// query(q, out) into a fresh result; nullopt when unsolvable.
  std::optional<KrigingResult> query(const std::vector<double>& q);

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
  /// B = A⁻¹ of the assembled system and z̃ the values padded with a
  /// border zero, e_i = [B·z̃]_i / B_ii and σ²₍ᵢ₎ = −1/B_ii — each
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
  std::size_t unique_size() const { return unique_; }
  std::size_t dimension() const { return dim_; }
  const SystemSpec& spec() const { return spec_; }
  const SystemStats& stats() const { return stats_; }

 private:
  struct Slot {
    std::size_t unique = 0;  ///< Index of the unique point it maps to.
    bool owner = false;      ///< First occurrence: carries the weight.
  };

  /// One in-place factorization of Γ + shift·I_core.
  struct Factor {
    int rung = -1;  ///< Ladder rung held (0 = plain); -1 when empty.
    std::vector<double> lu;
    std::vector<std::size_t> perm;
  };

  /// Distances below this that are exact non-negative integers have their
  /// entry memoised (lattice L1 distances; one bit of entry_known_ each).
  static constexpr std::size_t kEntryMemo = 64;

  /// Size the buffers for n slots of dimension dim (begins a load).
  void begin_load(std::size_t n, std::size_t dim);
  /// Dedupe the filled columns in place, then assemble Γ.
  void finish_load();
  /// Assemble the unshifted Γ of the loaded unique support.
  void assemble();
  /// Assemble the right-hand side of a query into rhs_.
  void assemble_rhs(const std::vector<double>& q);

  /// γ(d) of an already-computed distance, memoised for small integer
  /// distances (the model is fixed until set_model).
  double entry_of(double d);
  /// Diagonal entry of a support point: entry_of(0) − τ² (exact no-op at
  /// τ² = 0).
  double diagonal_entry();
  /// L1 distances from x to unique points from `first` on, written to
  /// dists_ from index 0 — one kernel call over the SoA columns, through
  /// their padded end.
  void distances_to(const std::vector<double>& x, std::size_t first);
  /// Unique point u as a row, copied from the columns into point_.
  const std::vector<double>& row(std::size_t u);
  /// Coordinate d of slot or unique point u.
  double coord(std::size_t u, std::size_t d) const {
    return cols_[d * stride_ + u];
  }
  /// The unique support plus the Lagrange row of the ones-border.
  std::size_t system_size() const { return unique_ + 1; }

  /// The factor of ladder rung `rung` at `shift`, built in place on first
  /// use; nullptr when that matrix is singular.
  const Factor* factor_at(int rung, double shift);
  /// Scale for the ridge ladder: max(|A|, 1) of the unshifted matrix —
  /// the exact scale linalg::robust_solve uses.
  double ladder_scale() const;
  /// Forget every factor and singularity verdict (support or model changed).
  void clear_factors();

  /// Turn the accepted solution x_ into `out` (estimate, variance,
  /// slot-indexed weights, contracts); false on a non-finite estimate.
  bool finalize(double shift, const Factor& used, KrigingResult& out) const;

  SystemSpec spec_;
  std::unique_ptr<VariogramModel> model_;

  std::size_t dim_ = 0;
  std::size_t unique_ = 0;   ///< Unique support points loaded.
  bool loaded_ = false;
  /// SoA columns: coordinate d of unique point u at cols_[d·stride_ + u].
  /// stride_ is the load's slot count rounded up to the distance kernels'
  /// 4-lane width, so every kernel call runs whole vectors; the padding
  /// lanes hold zeros or earlier loads' coordinates, whose distances are
  /// never read.
  /// Dedupe compacts the unique points to the front.
  std::vector<double> cols_;
  std::size_t stride_ = 0;
  /// Weighted coordinate sum per slot: equal points have equal keys, so
  /// the dedupe compares coordinates only where keys match.
  std::vector<double> keys_;
  std::vector<double> values_;  ///< Values of unique points.
  std::vector<Slot> slots_;     ///< Caller-visible order.

  /// Unshifted Γ (system_size()² row-major), the ladder's source matrix.
  std::vector<double> gamma_;
  Factor plain_;  ///< Rung 0.
  Factor ridge_;  ///< The last ridge rung factored.
  std::uint32_t singular_rungs_ = 0;  ///< Bit r: rung r is singular.

  std::vector<double> rhs_;       ///< Query right-hand side.
  std::vector<double> x_;         ///< Solution of the last solve.
  std::vector<double> dists_;     ///< Distance scratch.
  std::vector<double> point_;     ///< One support point as a row.
  std::vector<const double*> col_ptrs_;  ///< Kernel column pointers.
  SystemStats stats_;

  std::array<double, kEntryMemo> entry_memo_{};
  std::uint64_t entry_known_ = 0;
};

}  // namespace ace::kriging
