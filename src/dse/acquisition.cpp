#include "dse/acquisition.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "dse/kriging_policy.hpp"

namespace ace::dse {

namespace {

/// Calibration clamp: a single degenerate LOO pass (near-zero predicted
/// variances, or a window of near-identical values) must not wedge the
/// gate fully open or fully shut forever.
constexpr double kMinCalibration = 1e-2;
constexpr double kMaxCalibration = 1e4;

/// The adaptive gates' neighbourhood floor: they attempt kriging from
/// this many neighbours and let variance evidence carry the veto, instead
/// of the paper's hard `nn_min` count.
constexpr std::size_t kAdaptiveNeighbourFloor = 1;

/// LooCalibratedGate ceiling: accept while calibration · variance <=
/// kLooCeiling · sill.
constexpr double kLooCeiling = 1.0;

/// SequentialDesignGate confidence multiple z: interpolate only when
/// |estimate − λ_min| >= z · calibrated LOO std-deviation.
constexpr double kSequentialConfidence = 2.0;

/// Paper default: interpolate whenever the neighbourhood beats nn_min,
/// and always stand by the solve. Bit-identical to the pre-seam policy.
class NeighbourCountGate final : public AcquisitionGate {
 public:
  explicit NeighbourCountGate(std::size_t nn_min) : nn_min_(nn_min) {}
  GateKind kind() const override { return GateKind::kNeighbourCount; }
  bool attempt(const GateQuery& query) const override {
    return query.neighbors > nn_min_;
  }
  bool accept(const GateSolution&, PolicyStats&) const override {
    return true;
  }

 private:
  std::size_t nn_min_;
};

/// nn_min plus a variance ceiling: refuse interpolations whose kriging
/// variance exceeds ceiling · sill — extrapolations the support cannot
/// back. Vetoes count in variance_rejections.
class VarianceGate final : public AcquisitionGate {
 public:
  VarianceGate(std::size_t nn_min, double ceiling)
      : nn_min_(nn_min), ceiling_(ceiling) {}
  GateKind kind() const override { return GateKind::kVariance; }
  bool attempt(const GateQuery& query) const override {
    return query.neighbors > nn_min_;
  }
  bool accept(const GateSolution& solution,
              PolicyStats& stats) const override {
    if (solution.sill > 0.0 &&
        solution.variance > ceiling_ * solution.sill) {
      ++stats.variance_rejections;
      return false;
    }
    return true;
  }

 private:
  std::size_t nn_min_;
  double ceiling_;
};

/// Variance ceiling with the variance *recalibrated* by the rolling LOO
/// error (Le Gratiet & Cannamela, PAPERS.md): accept while
/// c · variance <= ceiling · sill, where c = mean(e²/σ²) from the last
/// refit-time LOO pass. An honest model (c ≈ 1) behaves like the
/// VarianceGate; an overconfident one (c > 1) is reined in. The nn_min
/// floor is relaxed to kAdaptiveNeighbourFloor neighbours — the calibrated
/// variance, not a point count, carries the veto — which is where the
/// simulation savings over the paper baseline come from.
class LooCalibratedGate final : public AcquisitionGate {
 public:
  GateKind kind() const override { return GateKind::kLooCalibrated; }
  bool attempt(const GateQuery& query) const override {
    return query.neighbors >= kAdaptiveNeighbourFloor;
  }
  bool accept(const GateSolution& solution,
              PolicyStats& stats) const override {
    if (solution.sill > 0.0 &&
        calibration_ * solution.variance > kLooCeiling * solution.sill) {
      ++stats.loo_rejections;
      return false;
    }
    return true;
  }
  bool wants_loo() const override { return true; }
  void calibrate(const LooSummary& summary) override {
    if (summary.count == 0 || summary.mean_sq_standardized <= 0.0) return;
    calibration_ = std::clamp(summary.mean_sq_standardized, kMinCalibration,
                              kMaxCalibration);
  }
  double calibration() const override { return calibration_; }

 private:
  double calibration_ = 1.0;  ///< 1 until the first LOO pass lands.
};

/// Vazquez & Bect's sequential-design criterion pointed at the λ_min
/// constraint test: an interpolation is only trusted when the predicted
/// value clears the decision threshold by z standard deviations of the
/// (LOO-calibrated) kriging uncertainty — simulate exactly where the
/// uncertainty threatens the feasibility verdict, interpolate everywhere
/// the verdict is already beyond doubt.
class SequentialDesignGate final : public AcquisitionGate {
 public:
  explicit SequentialDesignGate(double lambda_min) : lambda_min_(lambda_min) {}
  GateKind kind() const override { return GateKind::kSequentialDesign; }
  bool attempt(const GateQuery& query) const override {
    return query.neighbors >= kAdaptiveNeighbourFloor;
  }
  bool accept(const GateSolution& solution,
              PolicyStats& stats) const override {
    const double sigma =
        std::sqrt(std::max(calibration_ * solution.variance, 0.0));
    if (std::abs(solution.estimate - lambda_min_) <
        kSequentialConfidence * sigma) {
      ++stats.sequential_rejections;
      return false;
    }
    return true;
  }
  bool wants_loo() const override { return true; }
  void calibrate(const LooSummary& summary) override {
    if (summary.count == 0 || summary.mean_sq_standardized <= 0.0) return;
    calibration_ = std::clamp(summary.mean_sq_standardized, kMinCalibration,
                              kMaxCalibration);
  }
  double calibration() const override { return calibration_; }

 private:
  double lambda_min_;
  double calibration_ = 1.0;
};

}  // namespace

const char* gate_name(GateKind kind) {
  switch (kind) {
    case GateKind::kNeighbourCount: return "neighbour-count";
    case GateKind::kVariance: return "variance";
    case GateKind::kLooCalibrated: return "loo-calibrated";
    case GateKind::kSequentialDesign: return "sequential-design";
  }
  return "unknown";
}

std::unique_ptr<AcquisitionGate> make_gate(const PolicyOptions& options) {
  switch (options.gate) {
    case GateKind::kNeighbourCount:
      return std::make_unique<NeighbourCountGate>(options.nn_min);
    case GateKind::kVariance:
      return std::make_unique<VarianceGate>(options.nn_min,
                                            options.variance_gate);
    case GateKind::kLooCalibrated:
      return std::make_unique<LooCalibratedGate>();
    case GateKind::kSequentialDesign:
      if (!options.gate_lambda_min)
        throw std::invalid_argument(
            "make_gate: sequential-design gate needs gate_lambda_min");
      return std::make_unique<SequentialDesignGate>(*options.gate_lambda_min);
  }
  throw std::invalid_argument("make_gate: unknown gate kind");
}

}  // namespace ace::dse
