// Workflow example: simulate once, analyze forever.
//
// Exact DSE runs are the expensive part (the paper's SqueezeNet run took
// 98 hours). This example records the exact trajectory of an IIR
// refinement, saves it to CSV, reloads it, and replays it through the
// kriging policy at several distances and Nn,min values — without a
// single new simulation. This is how the repository's own Table I
// ablations work internally.
#include <cstdio>
#include <iostream>

#include "core/benchmarks.hpp"
#include "core/table1.hpp"
#include "dse/trajectory_io.hpp"
#include "util/table.hpp"

int main() {
  using namespace ace;

  // ---- expensive phase: exact optimizer run, recorded ----------------
  core::SignalBenchOptions opt;
  opt.samples = 256;
  opt.w_max = 20;
  const auto bench = core::make_iir_benchmark(opt);

  dse::TrajectoryRecorder recorder(bench.simulate);
  const auto result =
      dse::min_plus_one(recorder.evaluator(), bench.min_plus_one);
  std::cout << "exact run: " << recorder.unique_evaluations()
            << " simulations, solution " << dse::to_string(result.w_res)
            << "\n";

  const std::string path = "iir_trajectory.csv";
  dse::save_trajectory(recorder.trajectory(), path);
  std::cout << "trajectory saved to " << path << "\n\n";

  // ---- cheap phase: reload and sweep policy knobs offline ------------
  const auto trajectory = dse::load_trajectory(path);
  util::TablePrinter table({"d", "Nn,min", "p(%)", "j", "mu eps (bits)"});
  for (const int d : {2, 3, 4, 5}) {
    for (const std::size_t nn_min : {1u, 2u}) {
      dse::PolicyOptions options;
      options.distance = d;
      options.nn_min = nn_min;
      const auto report = dse::replay_with_kriging(
          trajectory, options, dse::MetricKind::kAccuracyDb);
      table.add_row({std::to_string(d), std::to_string(nn_min),
                     util::fmt_pct(report.interpolated_fraction(), 1),
                     util::fmt(report.mean_neighbors(), 2),
                     util::fmt(report.mean_epsilon(), 2)});
    }
  }
  table.print(std::cout);
  std::cout << "\nevery row above reused the same " << trajectory.size()
            << " recorded simulations\n";
  std::remove(path.c_str());
  return 0;
}
