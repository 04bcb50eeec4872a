// The pluggable simulate-vs-interpolate decision layer.
//
// The paper (Algorithms 1-2) decides between simulation and kriging
// interpolation on neighbour count alone; ROADMAP item 3 asks for the
// richer signals kriging gives for free — predicted variance, rolling
// leave-one-out error, and distance-to-decision-threshold (Vazquez &
// Bect's sequential-design criterion). AcquisitionGate is the seam those
// policies plug into: KrigingPolicy consults the gate twice per
// evaluation,
//
//   1. attempt(): is the neighbourhood rich enough to try kriging at all
//      (the paper's `count > nn_min` test lives here), and
//   2. accept(): given the solved interpolation (estimate, kriging
//      variance, field sill), stand by it or fall back to simulation —
//      vetoes bump the gate's own PolicyStats counter;
//
// plus a refit-time calibrate() hook fed by the fast factorization-backed
// LOO-CV pass (kriging::KrigingSystem::loo_residuals) for gates that
// track model error online. Gates are selected per policy through
// PolicyOptions::gate; the default NeighbourCountGate reproduces the
// paper's decisions bit-for-bit, which the decision-identity benches
// (bench/decision_divergence et al.) keep enforcing.
//
// Thread-safety: a gate belongs to exactly one KrigingPolicy and is only
// reached under that policy's mutex; calibrate() mutates gate state under
// the same lock.
#pragma once

#include <cstddef>
#include <memory>

namespace ace::dse {

struct PolicyOptions;
struct PolicyStats;

/// Which acquisition gate a policy runs (PolicyOptions::gate).
enum class GateKind {
  kNeighbourCount,    ///< Paper default: interpolate when count > nn_min.
  kVariance,          ///< nn_min plus a kriging-variance ceiling.
  kLooCalibrated,     ///< Variance scaled by rolling LOO error vs ceiling.
  kSequentialDesign,  ///< Simulate only where uncertainty threatens λ_min.
};

/// Stable lowercase identifier ("neighbour-count", ...), used by benches
/// and JSON artifacts.
const char* gate_name(GateKind kind);

/// What attempt() sees: the neighbourhood, before any solve is paid for.
struct GateQuery {
  std::size_t neighbors = 0;  ///< Stored points within the search radius.
};

/// What accept() sees: one solved interpolation.
struct GateSolution {
  double estimate = 0.0;  ///< The kriging estimate.
  double variance = 0.0;  ///< Kriging variance of the solved system.
  double sill = 0.0;      ///< Sample variance of the kriged field (0 if
                          ///< unknown); the natural variance scale.
};

/// Digest of one refit-time LOO-CV pass over the (windowed) store.
struct LooSummary {
  std::size_t count = 0;          ///< Residuals in the pass.
  double mean_abs_residual = 0.0; ///< mean |z_i − ẑ₍ᵢ₎|.
  /// mean(e²/σ²₍ᵢ₎) over points with positive LOO variance (0 when none):
  /// ~1 when the kriging variance is an honest error bar, >1 when the
  /// model is overconfident. This is the calibration factor adaptive
  /// gates multiply into the predicted variance.
  double mean_sq_standardized = 0.0;
};

/// One simulate-vs-interpolate policy. Implementations are stateless or
/// carry online calibration state owned by their policy (see file
/// comment for the locking contract).
class AcquisitionGate {
 public:
  virtual ~AcquisitionGate() = default;

  virtual GateKind kind() const = 0;
  const char* name() const { return gate_name(kind()); }

  /// Pre-solve: attempt kriging for this neighbourhood at all? A false
  /// verdict routes straight to simulation (no counter — mirrors the
  /// paper's silent nn_min test).
  virtual bool attempt(const GateQuery& query) const = 0;

  /// Post-solve: stand by the interpolation? A veto bumps this gate's
  /// rejection counter in `stats` and falls back to simulation.
  virtual bool accept(const GateSolution& solution,
                      PolicyStats& stats) const = 0;

  /// Whether the policy should run the LOO-CV pass at each refit (it
  /// costs O(window²) per residual, so only calibrated gates pay it).
  virtual bool wants_loo() const { return false; }

  /// Fold one refit-time LOO pass into online calibration state. The
  /// checkpoint format does not persist this state: restore() replays
  /// every recorded refit, which re-runs the identical LOO passes and
  /// reconstructs it bit-exactly.
  virtual void calibrate(const LooSummary& summary) { (void)summary; }

  /// Current variance-calibration factor (1 when uncalibrated/stateless).
  virtual double calibration() const { return 1.0; }
};

/// Build the gate options.gate selects, reading only the options that
/// gate uses (nn_min and variance_gate for kVariance, gate_lambda_min for
/// kSequentialDesign); the adaptive gates' floor, LOO ceiling and
/// confidence multiple are fixed constants. Throws std::invalid_argument
/// for kSequentialDesign without gate_lambda_min.
std::unique_ptr<AcquisitionGate> make_gate(const PolicyOptions& options);

}  // namespace ace::dse
