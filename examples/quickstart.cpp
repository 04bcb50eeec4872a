// Quickstart: plug YOUR application into the kriging-based error
// evaluation policy in ~30 lines.
//
// You provide one thing: a deterministic simulator mapping an integer
// configuration of approximation sources (here: two word lengths) to a
// quality metric λ. The policy decides, per configuration, whether to
// simulate or to interpolate the metric by ordinary kriging from nearby
// already-simulated configurations — exactly the policy of the DATE 2020
// paper this library reproduces.
#include <iostream>

#include "dse/min_plus_one.hpp"
#include "dse/scheduler.hpp"

int main() {
  using namespace ace;

  // A stand-in application: accuracy grows ~6 dB per bit on each of two
  // variables, with diminishing returns past 14 bits. Swap in your own
  // bit-accurate simulator here — anything deterministic works.
  auto my_simulator = [](const dse::Config& w) {
    double lambda = 0.0;
    for (int wl : w) lambda += 6.0 * std::min(wl, 14);
    return lambda;  // "accuracy" (higher is better)
  };

  // Policy knobs (paper Table I): search radius d and the minimum number
  // of simulated neighbours required before kriging replaces simulation.
  dse::PolicyOptions policy;
  policy.distance = 3;
  policy.nn_min = 1;

  dse::KrigingPolicy kriging(policy);

  // Run the classic min+1-bit word-length optimization through the policy:
  // every metric evaluation the optimizer requests is transparently
  // simulated-or-interpolated.
  dse::MinPlusOneOptions options;
  options.nv = 2;
  options.w_min = 2;
  options.w_max = 16;
  options.lambda_min = 150.0;  // Quality constraint λm.

  const auto result = dse::min_plus_one(
      dse::policy_evaluator(kriging, my_simulator), options);

  std::cout << "optimized word lengths: " << dse::to_string(result.w_res)
            << "\n"
            << "final accuracy: " << result.final_lambda
            << " (constraint " << options.lambda_min << ", met: "
            << (result.constraint_met ? "yes" : "no") << ")\n\n";

  const auto stats = kriging.stats();
  std::cout << "metric evaluations:   " << stats.total << "\n"
            << "  simulated:          " << stats.simulated << "\n"
            << "  kriging-interpolated: " << stats.interpolated << " ("
            << 100.0 * stats.interpolated_fraction() << "% saved)\n";
  return 0;
}
