#include "core/table1.hpp"

#include <algorithm>
#include <exception>
#include <ostream>
#include <stdexcept>

#include "dse/scheduler.hpp"
#include "util/stopwatch.hpp"
#include "util/thread_pool.hpp"
#include "util/table.hpp"

namespace ace::core {

Table1Result run_table1(const ApplicationBenchmark& bench,
                        const std::vector<int>& distances,
                        const dse::PolicyOptions& base,
                        util::ThreadPool* pool) {
  if (!bench.simulate)
    throw std::invalid_argument("run_table1: benchmark has no simulator");
  if (distances.empty())
    throw std::invalid_argument("run_table1: no distances requested");

  Table1Result result;
  result.benchmark = bench.name;
  result.metric = bench.metric;

  // Exact run: every distinct configuration simulated once, in order.
  dse::TrajectoryRecorder recorder([&](const dse::Config& config) {
    double lambda = 0.0;
    const auto errors = util::parallel_for_indexed_collect(
        pool, 1, [&](std::size_t) { lambda = bench.simulate(config); });
    if (!errors.empty()) std::rethrow_exception(errors.front().error);
    return lambda;
  });
  const dse::OptimizerCursor exact =
      bench.run_optimizer(recorder.as_simulator());
  result.trajectory = recorder.trajectory();
  result.exact_solution = dse::cursor_solution(exact);
  result.exact_lambda = dse::cursor_lambda(exact);

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

DivergenceReport run_decision_divergence(const ApplicationBenchmark& bench,
                                         const dse::PolicyOptions& options) {
  // (a) The fully exact run. Its evaluator keeps the last batch and the
  // exact values it returned, so after each greedy step the same
  // candidates can be put to the kriging estimates a deployed policy
  // would have served, and the two picks compared.
  dse::TrajectoryRecorder recorder(bench.simulate);
  const dse::EvaluateFn exact = recorder.as_simulator();
  std::vector<dse::Config> batch;
  std::vector<double> values;
  const dse::BatchEvaluateFn evaluate =
      [&](const std::vector<dse::Config>& candidates) {
        batch = candidates;
        values.clear();
        for (const dse::Config& c : candidates) values.push_back(exact(c));
        return values;
      };
  dse::KrigingPolicy estimate(options);
  std::vector<double> estimates;
  std::size_t diverging = 0;
  dse::OptimizerCursor cursor = dse::make_optimizer_cursor(
      bench.optimizer, bench.min_plus_one, bench.sensitivity);
  while (!dse::cursor_finished(cursor)) {
    const std::size_t decided = dse::cursor_decisions(cursor).size();
    dse::optimizer_step(evaluate, bench.min_plus_one, bench.sensitivity,
                        cursor);
    if (dse::cursor_decisions(cursor).size() == decided) continue;
    estimates.clear();
    for (const dse::Config& c : batch)
      estimates.push_back(estimate.evaluate(c, exact).value);
    if (dse::best_candidate(estimates) != dse::best_candidate(values))
      ++diverging;
  }

  // (b) Final configuration of an end-to-end kriging-driven run.
  dse::KrigingPolicy policy(options);
  const dse::OptimizerCursor kriged =
      bench.run_optimizer(dse::policy_evaluator(policy, bench.simulate));

  DivergenceReport report;
  report.exact_steps = dse::cursor_decisions(cursor).size();
  report.kriging_steps = dse::cursor_decisions(kriged).size();
  report.diverging = diverging;
  report.diverging_percent =
      report.exact_steps == 0
          ? 0.0
          : 100.0 * static_cast<double>(diverging) /
                static_cast<double>(report.exact_steps);
  report.exact_result = dse::cursor_solution(cursor);
  report.kriging_result = dse::cursor_solution(kriged);
  report.result_l1_gap =
      dse::l1_distance(report.exact_result, report.kriging_result);
  report.stats = policy.stats();
  return report;
}

}  // namespace ace::core
