#include "dse/trajectory.hpp"

#include <algorithm>
#include <cmath>
#include <exception>
#include <stdexcept>

#include "metrics/error_metrics.hpp"
#include "metrics/noise_power.hpp"
#include "util/thread_pool.hpp"

namespace ace::dse {

TrajectoryRecorder::TrajectoryRecorder(SimulatorFn simulate)
    : simulate_(std::move(simulate)) {
  if (!simulate_)
    throw std::invalid_argument("TrajectoryRecorder: null simulator");
}

BatchEvaluateFn TrajectoryRecorder::evaluator(util::ThreadPool* pool) {
  return [this, pool](const std::vector<Config>& batch) {
    return evaluate(batch, pool);
  };
}

std::vector<double> TrajectoryRecorder::evaluate(
    const std::vector<Config>& batch, util::ThreadPool* pool) {
  // The batch's configurations not yet recorded, each once, in candidate
  // order (batches are an optimizer step's Nv candidates: a linear scan
  // for in-batch duplicates is cheaper than a second hash set).
  std::vector<Config> fresh;
  for (const Config& c : batch)
    if (!cache_.contains(c) &&
        std::find(fresh.begin(), fresh.end(), c) == fresh.end())
      fresh.push_back(c);

  std::vector<double> lambdas(fresh.size());
  const std::vector<util::TaskError> errors =
      util::parallel_for_indexed_collect(
          pool, fresh.size(),
          [&](std::size_t i) { lambdas[i] = simulate_(fresh[i]); });
  const std::size_t recorded =
      errors.empty() ? fresh.size() : errors.front().index;
  for (std::size_t i = 0; i < recorded; ++i) {
    cache_.emplace(fresh[i], lambdas[i]);
    trajectory_.configs.push_back(std::move(fresh[i]));
    trajectory_.values.push_back(lambdas[i]);
  }
  if (!errors.empty()) std::rethrow_exception(errors.front().error);

  std::vector<double> values;
  values.reserve(batch.size());
  for (const Config& c : batch) values.push_back(cache_.at(c));
  return values;
}

double ReplayReport::interpolated_fraction() const {
  return stats.interpolated_fraction();
}

double ReplayReport::mean_neighbors() const {
  return stats.neighbors_per_interpolation.mean();
}

double ReplayReport::max_epsilon() const {
  double m = 0.0;
  for (const auto& r : records)
    if (r.interpolated) m = std::max(m, r.epsilon);
  return m;
}

double ReplayReport::mean_epsilon() const {
  double acc = 0.0;
  std::size_t n = 0;
  for (const auto& r : records)
    if (r.interpolated) {
      acc += r.epsilon;
      ++n;
    }
  return n == 0 ? 0.0 : acc / static_cast<double>(n);
}

double interpolation_epsilon(double estimate, double true_value,
                             MetricKind kind) {
  switch (kind) {
    case MetricKind::kAccuracyDb: {
      // λ = −P_dB, so ε = |log2(P̂/P)| (Eq. 11) reduces to
      // |λ̂ − λ| · log2(10)/10 — computed directly in the dB domain so a
      // wildly extrapolated estimate cannot overflow the linear-power
      // conversion.
      return std::abs(estimate - true_value) * std::log2(10.0) / 10.0;
    }
    case MetricKind::kQualityRate:
      return metrics::epsilon_relative(estimate, true_value);  // Eq. 12.
  }
  throw std::logic_error("interpolation_epsilon: unreachable");
}

ReplayReport replay_with_kriging(const Trajectory& trajectory,
                                 const PolicyOptions& options,
                                 MetricKind kind) {
  if (trajectory.configs.size() != trajectory.values.size())
    throw std::invalid_argument("replay_with_kriging: ragged trajectory");

  KrigingPolicy policy(options);
  ReplayReport report;
  report.records.reserve(trajectory.size());

  for (std::size_t i = 0; i < trajectory.size(); ++i) {
    const double true_value = trajectory.values[i];
    const auto outcome = policy.evaluate(
        trajectory.configs[i], [&](const Config&) { return true_value; });

    ReplayRecord record;
    record.index = i;
    record.interpolated = outcome.interpolated;
    record.true_value = true_value;
    record.estimate = outcome.value;
    record.neighbors = outcome.neighbors;
    record.epsilon = outcome.interpolated
                         ? interpolation_epsilon(outcome.value, true_value, kind)
                         : 0.0;
    report.records.push_back(record);
  }
  report.stats = policy.stats();
  return report;
}

}  // namespace ace::dse
