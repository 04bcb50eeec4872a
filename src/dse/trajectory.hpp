// Trajectory recording and kriging replay — the paper's primary
// experimental protocol (Sec. III-B): run the optimization with exhaustive
// simulation once, record every tested configuration and its true metric
// value *in evaluation order*, then replay the same sequence through the
// simulate-or-interpolate policy and compare interpolated vs true values.
#pragma once

#include <cstddef>
#include <unordered_map>
#include <vector>

#include "dse/config.hpp"
#include "dse/kriging_policy.hpp"
#include "dse/min_plus_one.hpp"  // BatchEvaluateFn

namespace ace::util {
class ThreadPool;
}

namespace ace::dse {

/// Ordered record of distinct tested configurations with true metric values.
struct Trajectory {
  std::vector<Config> configs;
  std::vector<double> values;

  std::size_t size() const { return configs.size(); }
};

/// Wraps a simulator: memoizes by configuration (a repeated configuration
/// is never re-simulated) and records each *first* evaluation in order.
class TrajectoryRecorder {
 public:
  /// Throws std::invalid_argument on a null simulator.
  explicit TrajectoryRecorder(SimulatorFn simulate);

  /// The exact evaluator bound to this recorder. Each batch is deduped
  /// against the record and within itself; the new configurations are
  /// simulated on `pool` (inline when null) and appended to the record in
  /// candidate order, so the trajectory is the same bytes with or without
  /// a pool. A failed simulation rethrows the lowest-index failure after
  /// recording the configurations before it, as a serial run would. The
  /// returned callable references this recorder and `pool`; it must not
  /// outlive either.
  BatchEvaluateFn evaluator(util::ThreadPool* pool = nullptr);

  const Trajectory& trajectory() const { return trajectory_; }
  std::size_t unique_evaluations() const { return trajectory_.size(); }

 private:
  std::vector<double> evaluate(const std::vector<Config>& batch,
                               util::ThreadPool* pool);

  SimulatorFn simulate_;
  Trajectory trajectory_;
  std::unordered_map<Config, double, ConfigHash> cache_;
};

/// How interpolation error ε is expressed (paper Eqs. 11-12).
enum class MetricKind {
  kAccuracyDb,   ///< λ = −P in dB; ε in equivalent bits (Eq. 11).
  kQualityRate,  ///< Generic quality metric; ε relative (Eq. 12).
};

/// Per-configuration replay outcome.
struct ReplayRecord {
  std::size_t index = 0;       ///< Position in the trajectory.
  bool interpolated = false;
  double true_value = 0.0;     ///< λ from the recorded exact run.
  double estimate = 0.0;       ///< λ̂ (equals true value when simulated).
  std::size_t neighbors = 0;
  double epsilon = 0.0;        ///< ε (only meaningful when interpolated).
};

/// Aggregates matching one row-group of the paper's Table I.
struct ReplayReport {
  PolicyStats stats;
  std::vector<ReplayRecord> records;

  double interpolated_fraction() const;    ///< p (0..1).
  double mean_neighbors() const;           ///< j̄.
  double max_epsilon() const;              ///< max ε (0 if none interpolated).
  double mean_epsilon() const;             ///< μ ε (0 if none interpolated).
};

/// ε between an estimated and a true λ under the metric convention.
double interpolation_epsilon(double estimate, double true_value,
                             MetricKind kind);

/// Replay a recorded trajectory through the kriging policy.
ReplayReport replay_with_kriging(const Trajectory& trajectory,
                                 const PolicyOptions& options,
                                 MetricKind kind);

}  // namespace ace::dse
