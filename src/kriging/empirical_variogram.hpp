// Empirical semi-variogram (paper Eq. 4):
//   γ̂(d) = 1 / (2|N(d)|) · Σ_{(j,k) ∈ N(d)} (λ(e_j) − λ(e_k))²
// where N(d) is the set of sample pairs at (binned) distance d.
//
// Configurations live on an integer lattice and distances are L1, so with
// bin_width = 1 the binning is exact, matching the paper's discrete
// hypercube setting.
//
// The variogram is *extendable*: extend() folds only the new samples'
// pairs into the existing bins — O(k·N) for k new points over N existing
// ones — so a periodically refitted model does not pay the O(N²) full
// rebuild on every refit (cf. fast cross-validation for sequential
// designs, Le Gratiet & Cannamela, arXiv:1210.6187).
//
// Held samples are stored as SoA columns (one contiguous array per
// coordinate), and each new sample is paired with every held sample in one
// util::simd::l1_distances_f64 column-kernel call (bit-identical to
// l1_distance, DESIGN.md §10). Bins are a dense array indexed by
// floor(d / bin_width), folded in the same (j < k) pair order as a full
// rebuild, so every accumulator sums its terms in the same order however
// the samples were blocked.
//
// Thread-safety: none of its own, like the other kriging types. The one
// shared instance, dse::KrigingPolicy's, is ACE_GUARDED_BY the policy
// mutex, so the Clang capability analysis (-Wthread-safety) proves every
// extend() and accessor call on it runs under that lock; every other
// holder is single-threaded.
#pragma once

#include <cstddef>
#include <vector>

namespace ace::kriging {

/// L1 (Manhattan) distance — the paper's choice (Algs. 1-2 line 9) and the
/// kriging layer's only metric. A stateless function object: the
/// EmpiricalVariogram and KrigingSystem constructors take it as a tag, so
/// no other metric can be passed in. Throws std::invalid_argument on a
/// dimension mismatch.
struct L1Distance {
  double operator()(const std::vector<double>& a,
                    const std::vector<double>& b) const;
};
inline constexpr L1Distance l1_distance{};

/// One bin of the empirical semi-variogram.
struct VariogramBin {
  double distance = 0.0;      ///< Representative distance (bin centre).
  double gamma = 0.0;         ///< γ̂(d).
  std::size_t pair_count = 0; ///< |N(d)| — used as fit weight.
};

/// Empirical semi-variogram over a growing sample set.
class EmpiricalVariogram {
 public:
  /// Bin count limit. Bins are dense, so a pair distance of
  /// kMaxBins·bin_width or more is rejected rather than turned into a huge
  /// allocation (lattice L1 distances sit far below it).
  static constexpr std::size_t kMaxBins = std::size_t{1} << 16;

  /// Empty, extendable variogram. bin_width groups pairwise distances into
  /// [k·w, (k+1)·w) bins represented by their mean distance. Throws
  /// std::invalid_argument unless bin_width is finite and positive. The
  /// L1Distance parameter carries no choice; it stays because callers
  /// (bench/e2e) spell EmpiricalVariogram(kriging::l1_distance, w).
  explicit EmpiricalVariogram(L1Distance = {}, double bin_width = 1.0);

  /// Compute from points/values in one shot. Throws std::invalid_argument
  /// on size mismatch, < 2 points, a bad bin width, or anything extend()
  /// rejects.
  EmpiricalVariogram(const std::vector<std::vector<double>>& points,
                     const std::vector<double>& values, L1Distance = {},
                     double bin_width = 1.0);

  /// Fold new samples into the variogram: each new point is paired against
  /// every already-held point and against the earlier new points, updating
  /// the existing bins in place. All or nothing — on any throw the
  /// variogram is unchanged:
  ///   * std::invalid_argument on a points/values size mismatch, a point
  ///     whose dimension differs from the held samples', or a distance at
  ///     or beyond kMaxBins·bin_width;
  ///   * util::NonFiniteError when a value, a coordinate or a pair
  ///     distance is NaN/Inf (finite coordinates can still overflow the
  ///     L1 sum to ∞).
  void extend(const std::vector<std::vector<double>>& points,
              const std::vector<double>& values);

  /// Number of samples folded in so far.
  std::size_t sample_count() const { return values_.size(); }

  /// Bins in ascending distance order. The reference stays valid until the
  /// next extend().
  const std::vector<VariogramBin>& bins() const { return bins_; }
  std::size_t total_pairs() const { return total_pairs_; }

  /// Largest pairwise distance observed.
  double max_distance() const { return max_distance_; }

  /// Sample variance of the values — the natural sill estimate.
  double value_variance() const { return value_variance_; }

 private:
  struct BinAccum {
    double sum_sq_diff = 0.0;  // Σ (λj − λk)²
    double sum_distance = 0.0;
    std::size_t pairs = 0;
  };

  /// Materialize bins_ from the non-empty accumulators (cheap: the bin
  /// count is small).
  void rebuild_view();

  /// Distances from `point` to held samples [0, count), written to out.
  void distances_to_held(const std::vector<double>& point, std::size_t count,
                         double* out) const;

  double bin_width_;     ///< Immutable after construction.
  std::size_t dim_ = 0;  ///< Set by the first sample.
  /// Held sample coordinates, SoA: cols_[d][j] is coordinate d of sample j.
  std::vector<std::vector<double>> cols_;
  std::vector<double> values_;
  /// Dense bins: accum_[b] covers [b·w, (b+1)·w); empty bins hold 0 pairs.
  std::vector<BinAccum> accum_;
  std::vector<VariogramBin> bins_;
  std::size_t total_pairs_ = 0;
  double max_distance_ = 0.0;
  // Welford running variance of the sample values.
  double value_mean_ = 0.0;
  double value_m2_ = 0.0;
  double value_variance_ = 0.0;
};

}  // namespace ace::kriging
