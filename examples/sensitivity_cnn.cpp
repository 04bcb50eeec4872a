// Error-sensitivity analysis of a CNN (the paper's SqueezeNet benchmark):
// find the largest per-layer error powers the classifier tolerates while
// still agreeing with the error-free network on >= 90% of inputs —
// with kriging replacing most of the expensive network evaluations.
#include <cmath>
#include <iostream>

#include "core/benchmarks.hpp"
#include "dse/scheduler.hpp"
#include "dse/steepest_descent.hpp"
#include "nn/injection.hpp"
#include "util/table.hpp"

int main() {
  using namespace ace;

  core::CnnBenchOptions opt;
  opt.images = 120;  // Scaled-down input set for a fast demo.
  opt.pcl_min = 0.90;
  const auto bench = core::make_squeezenet_benchmark(opt);

  std::cout << "SqueezeNet-like error budgeting (10 injection sites, "
            << opt.images << " images, target agreement >= "
            << opt.pcl_min * 100.0 << "%)\n\n";

  dse::PolicyOptions policy;
  policy.distance = 3;
  dse::KrigingPolicy kriging(policy);

  const auto result = dse::steepest_descent_budgeting(
      dse::policy_evaluator(kriging, bench.simulate), bench.sensitivity);
  if (!result.feasible) {
    std::cout << "even near-silent error sources break the target — "
                 "lower pcl_min or the base power\n";
    return 1;
  }

  util::TablePrinter table({"site", "layer", "level", "tolerated power"});
  const char* names[] = {"conv1",  "fire2", "fire3", "fire4", "fire5",
                         "fire6",  "fire7", "fire8", "fire9", "conv10"};
  for (std::size_t i = 0; i < result.levels.size(); ++i) {
    const double power =
        nn::power_from_level(result.levels[i], opt.base_power);
    table.add_row({std::to_string(i), names[i],
                   std::to_string(result.levels[i]),
                   util::fmt(power, 6)});
  }
  table.print(std::cout);

  const auto stats = kriging.stats();
  std::cout << "\nfinal agreement: " << util::fmt(result.final_lambda * 100, 2)
            << "%\n"
            << "network evaluations: " << stats.total << " ("
            << stats.simulated << " simulated, " << stats.interpolated
            << " kriged — "
            << util::fmt(stats.interpolated_fraction() * 100, 1)
            << "% avoided)\n"
            << "\nreading: a LOW level = LARGE tolerated error. Layers that\n"
               "end at low levels are robust; layers stuck at high levels\n"
               "dominate the classifier's error sensitivity.\n";
  return 0;
}
