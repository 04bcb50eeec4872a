// Experiment orchestration reproducing the paper's evaluation:
//   * Table I rows (per benchmark, per distance d): p(%), j̄, max ε, μ ε;
//   * the timing / speed-up analysis of Sec. IV;
//   * the ~10% decision-divergence measurement of Sec. IV.
#pragma once

#include <iosfwd>
#include <vector>

#include "core/benchmarks.hpp"
#include "dse/trajectory.hpp"

namespace ace::util {
class ThreadPool;
}

namespace ace::core {

/// One Table I row.
struct Table1Row {
  int distance = 0;          ///< d.
  double p_percent = 0.0;    ///< Interpolated configurations (%).
  double j_mean = 0.0;       ///< Mean support size per interpolation.
  double eps_max = 0.0;      ///< max ε.
  double eps_mean = 0.0;     ///< μ ε.
};

/// All rows of one benchmark plus the underlying trajectory.
struct Table1Result {
  std::string benchmark;
  dse::MetricKind metric = dse::MetricKind::kAccuracyDb;
  dse::Trajectory trajectory;       ///< Exact run, in evaluation order.
  std::vector<Table1Row> rows;
  dse::Config exact_solution;       ///< Optimizer result with exact λ.
  double exact_lambda = 0.0;
};

/// Run the benchmark's optimizer with exhaustive simulation (recording the
/// trajectory), then replay through the kriging policy for each distance.
/// `base` supplies the non-distance policy knobs (nn_min, fit options).
/// The exact run's recorder simulates each step's new candidates on
/// `pool` (inline when null), where a simulator that splits its parts
/// (SimulatorFn) spreads them over the workers the batch leaves idle; the
/// trajectory and the result are the same bits either way.
Table1Result run_table1(const ApplicationBenchmark& bench,
                        const std::vector<int>& distances,
                        const dse::PolicyOptions& base = {},
                        util::ThreadPool* pool = nullptr);

/// Render rows in the paper's Table I layout.
void print_table1(std::ostream& os, const Table1Result& result);

/// Timing analysis (Sec. IV): measured simulation time vs interpolation
/// time and the resulting end-to-end optimization speed-up at a given p.
struct TimingReport {
  double sim_seconds = 0.0;    ///< Mean wall-clock of one simulation.
  double krig_seconds = 0.0;   ///< Mean wall-clock of one interpolation.
  double p = 0.0;              ///< Interpolated fraction used.
  double speedup = 1.0;        ///< t_exact / t_kriging for the whole DSE.
};

/// Measure per-evaluation costs on the benchmark and compute the speed-up
/// at the interpolated fraction achieved at distance `d` in `result`.
TimingReport measure_speedup(const ApplicationBenchmark& bench,
                             const Table1Result& result, int distance);

/// Decision-divergence analysis (Sec. IV): run the optimizer with exact
/// simulation and, at every decision point, counterfactually ask which
/// candidate kriging would have selected: the same candidates, in index
/// order, go to a KrigingPolicy that interpolates where a deployed policy
/// would. `diverging_percent` is the fraction of decision points where the
/// two selections differ (the paper reports ~10%); `result_l1_gap`
/// compares the final configuration of an end-to-end kriging-driven run
/// with the exact run's.
struct DivergenceReport {
  std::size_t exact_steps = 0;     ///< Greedy steps of the exact run.
  std::size_t kriging_steps = 0;   ///< Greedy steps of the kriging run.
  std::size_t diverging = 0;       ///< Decision points with a different pick.
  double diverging_percent = 0.0;
  dse::Config exact_result;
  dse::Config kriging_result;
  int result_l1_gap = 0;           ///< L1 distance between final configs.
  dse::PolicyStats stats;          ///< Policy stats of the kriging run.
};

DivergenceReport run_decision_divergence(const ApplicationBenchmark& bench,
                                         const dse::PolicyOptions& options);

}  // namespace ace::core
