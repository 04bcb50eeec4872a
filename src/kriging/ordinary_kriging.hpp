// Ordinary kriging estimator (paper Eq. 3 and 7-10).
//
// Given support configurations e_0..e_{N-1} with measured metric values
// λ_0..λ_{N-1} and a semi-variogram model γ, the estimate at query e_i is
//   λ̂(e_i) = γ_i · Γ⁻¹ · λ                                   (Eq. 10)
// where Γ is the (N+1)×(N+1) bordered matrix of Eq. 9 (pairwise
// semi-variances with a Lagrange row enforcing Σμ = 1, i.e. unbiasedness,
// Eq. 6), γ_i the query semi-variance vector of Eq. 8, and λ the value
// vector padded with a trailing 0 (Eq. 7).
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "kriging/empirical_variogram.hpp"
#include "kriging/variogram_model.hpp"

namespace ace::kriging {

/// Result of one kriging interpolation.
struct KrigingResult {
  double estimate = 0.0;       ///< λ̂(e_i).
  double variance = 0.0;       ///< Kriging variance (>= 0 up to round-off).
  bool regularized = false;    ///< Ridge fallback was used on Γ.
  double ridge = 0.0;          ///< Diagonal shift used (0 when unregularized).
  double rcond = 0.0;          ///< Pivot-ratio condition estimate of the solve.
  std::vector<double> weights; ///< The μ_k of Eq. 3 (size N).
};

/// One-shot ordinary kriging.
///
/// Throws std::invalid_argument on empty support, size mismatches, or
/// dimension mismatches. Returns nullopt when the bordered system cannot
/// be solved even with regularization — callers fall back to simulation.
std::optional<KrigingResult> krige(
    const std::vector<std::vector<double>>& support_points,
    const std::vector<double>& support_values,
    const std::vector<double>& query, const VariogramModel& model,
    const DistanceFn& distance = l1_distance);

class KrigingSystem;

/// Reusable estimator: factors Γ once for a fixed support set, then serves
/// many queries (the KrigingSystem keeps its factor across queries, so
/// repeated estimates pay only the O(N²) solve). Used by the
/// exhaustive-surface benches where hundreds of queries share one
/// neighbourhood. Not thread-safe: concurrent estimate() calls race on the
/// system's reused buffers.
class OrdinaryKriging {
 public:
  /// Throws std::invalid_argument on empty/ragged support.
  OrdinaryKriging(std::vector<std::vector<double>> support_points,
                  std::vector<double> support_values,
                  const VariogramModel& model,
                  DistanceFn distance = l1_distance);
  ~OrdinaryKriging();

  /// Interpolate at a query configuration; nullopt when the system is
  /// unsolvable.
  std::optional<KrigingResult> estimate(const std::vector<double>& query) const;

  std::size_t support_size() const;

 private:
  /// Mutable: queries reuse the system's buffers and factor.
  mutable std::unique_ptr<KrigingSystem> system_;
};

}  // namespace ace::kriging
