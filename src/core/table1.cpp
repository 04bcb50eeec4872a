#include "core/table1.hpp"

#include <algorithm>
#include <limits>
#include <ostream>
#include <stdexcept>
#include <unordered_map>

#include "core/engine.hpp"
#include "util/stopwatch.hpp"
#include "util/table.hpp"

namespace ace::core {

namespace {

/// Run the benchmark's optimizer against the given evaluator; returns the
/// final configuration, final λ, and the greedy decision sequence.
struct OptimizerRun {
  dse::Config solution;
  double lambda = 0.0;
  std::vector<std::size_t> decisions;
};

OptimizerRun run_optimizer(const ApplicationBenchmark& bench,
                           const dse::EvaluateFn& evaluate) {
  OptimizerRun run;
  switch (bench.optimizer) {
    case OptimizerKind::kMinPlusOne: {
      const auto result = dse::min_plus_one(evaluate, bench.min_plus_one);
      run.solution = result.w_res;
      run.lambda = result.final_lambda;
      run.decisions = result.decisions;
      break;
    }
    case OptimizerKind::kSteepestDescent: {
      const auto result =
          dse::steepest_descent_budgeting(evaluate, bench.sensitivity);
      run.solution = result.levels;
      run.lambda = result.final_lambda;
      run.decisions = result.decisions;
      break;
    }
  }
  return run;
}

}  // namespace

Table1Result run_table1(const ApplicationBenchmark& bench,
                        const std::vector<int>& distances,
                        const dse::PolicyOptions& base) {
  if (!bench.simulate)
    throw std::invalid_argument("run_table1: benchmark has no simulator");
  if (distances.empty())
    throw std::invalid_argument("run_table1: no distances requested");

  Table1Result result;
  result.benchmark = bench.name;
  result.metric = bench.metric;

  // Exact run: every distinct configuration simulated once, in order.
  dse::TrajectoryRecorder recorder(bench.simulate);
  const auto exact = run_optimizer(bench, recorder.as_simulator());
  result.trajectory = recorder.trajectory();
  result.exact_solution = exact.solution;
  result.exact_lambda = exact.lambda;

  // Kriging replay per distance.
  for (const int d : distances) {
    dse::PolicyOptions options = base;
    options.distance = d;
    const auto report =
        dse::replay_with_kriging(result.trajectory, options, bench.metric);
    Table1Row row;
    row.distance = d;
    row.p_percent = report.interpolated_fraction() * 100.0;
    row.j_mean = report.mean_neighbors();
    row.eps_max = report.max_epsilon();
    row.eps_mean = report.mean_epsilon();
    result.rows.push_back(row);
  }
  return result;
}

void print_table1(std::ostream& os, const Table1Result& result) {
  const bool bits = result.metric == dse::MetricKind::kAccuracyDb;
  util::TablePrinter table({"benchmark", "Nv", "d", "p(%)", "j",
                            bits ? "max eps (bits)" : "max eps (rel)",
                            bits ? "mu eps (bits)" : "mu eps (rel)"});
  const std::size_t nv =
      result.trajectory.configs.empty() ? 0 : result.trajectory.configs[0].size();
  for (const auto& row : result.rows) {
    auto fmt_eps = [&](double e) {
      return bits ? util::fmt(e, 2) : util::fmt_pct(e, 2) + "%";
    };
    table.add_row({result.benchmark, std::to_string(nv),
                   std::to_string(row.distance), util::fmt(row.p_percent, 2),
                   util::fmt(row.j_mean, 2), fmt_eps(row.eps_max),
                   fmt_eps(row.eps_mean)});
  }
  table.print(os);
}

TimingReport measure_speedup(const ApplicationBenchmark& bench,
                             const Table1Result& result, int distance) {
  const auto row_it =
      std::find_if(result.rows.begin(), result.rows.end(),
                   [&](const Table1Row& r) { return r.distance == distance; });
  if (row_it == result.rows.end())
    throw std::invalid_argument("measure_speedup: distance not in result");
  if (result.trajectory.size() == 0)
    throw std::invalid_argument("measure_speedup: empty trajectory");

  TimingReport report;
  report.p = row_it->p_percent / 100.0;

  // Mean simulation cost over a handful of recorded configurations.
  const std::size_t probes = std::min<std::size_t>(5, result.trajectory.size());
  util::Stopwatch sim_watch;
  for (std::size_t i = 0; i < probes; ++i)
    (void)bench.simulate(
        result.trajectory.configs[i * (result.trajectory.size() / probes)]);
  report.sim_seconds = sim_watch.seconds() / static_cast<double>(probes);

  // Mean interpolation cost: replay at this distance and time the policy's
  // evaluate() calls on interpolated configurations only.
  dse::PolicyOptions options;
  options.distance = distance;
  dse::KrigingPolicy policy(options);
  double krig_seconds = 0.0;
  std::size_t krig_count = 0;
  for (std::size_t i = 0; i < result.trajectory.size(); ++i) {
    const double true_value = result.trajectory.values[i];
    util::Stopwatch watch;
    const auto outcome = policy.evaluate(
        result.trajectory.configs[i],
        [&](const dse::Config&) { return true_value; });
    if (outcome.interpolated) {
      krig_seconds += watch.seconds();
      ++krig_count;
    }
  }
  report.krig_seconds =
      krig_count == 0 ? 0.0 : krig_seconds / static_cast<double>(krig_count);

  // Whole-DSE speed-up: t_exact / t_kriged (Eq. 2 applied to both flows).
  const double ratio =
      report.sim_seconds <= 0.0 ? 0.0 : report.krig_seconds / report.sim_seconds;
  const double denom = (1.0 - report.p) + report.p * ratio;
  report.speedup = denom <= 0.0 ? 1.0 : 1.0 / denom;
  return report;
}

namespace {

/// Kriging-estimate oracle for the divergence analysis: serves λ̂ exactly
/// as the deployed policy would (interpolate when the neighbourhood
/// allows, otherwise "simulate" = take the true value and enrich the
/// store), memoized per configuration so repeated candidates are stable.
class EstimateOracle {
 public:
  EstimateOracle(dse::PolicyOptions options, dse::SimulatorFn truth)
      : policy_(std::move(options)), truth_(std::move(truth)) {}

  double operator()(const dse::Config& c) {
    if (const auto it = memo_.find(c); it != memo_.end()) return it->second;
    const auto outcome = policy_.evaluate(c, truth_);
    memo_.emplace(c, outcome.value);
    return outcome.value;
  }

  dse::PolicyStats stats() const { return policy_.stats(); }

 private:
  dse::KrigingPolicy policy_;
  dse::SimulatorFn truth_;
  std::unordered_map<dse::Config, double, dse::ConfigHash> memo_;
};

/// Walk the EXACT optimizer's greedy path (the paper's recorded process);
/// at every decision point, recompute the argmax from the kriging
/// estimates and count how often the selection would have differed.
struct FlipCount {
  std::size_t steps = 0;
  std::size_t diverging = 0;
};

FlipCount count_min_plus_one_flips(const ApplicationBenchmark& bench,
                                   dse::TrajectoryRecorder& exact,
                                   EstimateOracle& estimate) {
  const auto& opt = bench.min_plus_one;
  auto exact_eval = exact.as_simulator();
  dse::Config w = dse::determine_min_word_lengths(exact_eval, opt);

  FlipCount flips;
  double lambda = exact_eval(w);
  while (lambda < opt.lambda_min && flips.steps < opt.max_steps) {
    double best_e = -std::numeric_limits<double>::infinity();
    double best_k = best_e;
    std::size_t pick_e = opt.nv, pick_k = opt.nv;
    for (std::size_t i = 0; i < opt.nv; ++i) {
      if (w[i] >= opt.w_max) continue;
      dse::Config candidate = w;
      ++candidate[i];
      const double le = exact_eval(candidate);
      const double lk = estimate(candidate);
      if (le > best_e) {
        best_e = le;
        pick_e = i;
      }
      if (lk > best_k) {
        best_k = lk;
        pick_k = i;
      }
    }
    if (pick_e == opt.nv) break;
    if (pick_e != pick_k) ++flips.diverging;
    ++w[pick_e];  // The exact pick drives the state.
    lambda = best_e;
    ++flips.steps;
  }
  return flips;
}

FlipCount count_sensitivity_flips(const ApplicationBenchmark& bench,
                                  dse::TrajectoryRecorder& exact,
                                  EstimateOracle& estimate) {
  const auto& opt = bench.sensitivity;
  auto exact_eval = exact.as_simulator();

  FlipCount flips;
  dse::Config levels(opt.nv, opt.level_max);
  (void)exact_eval(levels);
  while (flips.steps < opt.max_steps) {
    double best_e = -std::numeric_limits<double>::infinity();
    double best_k = best_e;
    std::size_t pick_e = opt.nv, pick_k = opt.nv;
    for (std::size_t i = 0; i < opt.nv; ++i) {
      if (levels[i] <= opt.level_min) continue;
      dse::Config candidate = levels;
      --candidate[i];
      const double le = exact_eval(candidate);
      const double lk = estimate(candidate);
      if (le > best_e) {
        best_e = le;
        pick_e = i;
      }
      if (lk > best_k) {
        best_k = lk;
        pick_k = i;
      }
    }
    if (pick_e == opt.nv || best_e < opt.lambda_min) break;
    if (pick_e != pick_k) ++flips.diverging;
    --levels[pick_e];
    ++flips.steps;
  }
  return flips;
}

}  // namespace

DivergenceReport run_decision_divergence(const ApplicationBenchmark& bench,
                                         const dse::PolicyOptions& options) {
  // Fully exact run — the final-result baseline.
  dse::TrajectoryRecorder recorder(bench.simulate);
  const auto exact = run_optimizer(bench, recorder.as_simulator());

  // (a) Decision flips along the exact run's own greedy path, scored
  // against the kriging estimates a deployed policy would have served.
  dse::TrajectoryRecorder replay_recorder(bench.simulate);
  EstimateOracle estimate(options, replay_recorder.as_simulator());
  const FlipCount flips =
      bench.optimizer == OptimizerKind::kMinPlusOne
          ? count_min_plus_one_flips(bench, replay_recorder, estimate)
          : count_sensitivity_flips(bench, replay_recorder, estimate);

  // (b) Final configuration of an end-to-end kriging-driven run.
  ErrorEvaluationEngine engine(bench.simulate, options, bench.metric);
  const auto kriged = run_optimizer(bench, engine.as_evaluator());

  DivergenceReport report;
  report.exact_steps = exact.decisions.size();
  report.kriging_steps = kriged.decisions.size();
  report.diverging = flips.diverging;
  report.diverging_percent =
      flips.steps == 0 ? 0.0
                       : 100.0 * static_cast<double>(flips.diverging) /
                             static_cast<double>(flips.steps);
  report.exact_result = exact.solution;
  report.kriging_result = kriged.solution;
  report.result_l1_gap = dse::l1_distance(exact.solution, kriged.solution);
  report.stats = engine.stats();
  return report;
}

}  // namespace ace::core
