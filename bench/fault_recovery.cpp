// Fault-recovery bench for the robustness subsystem.
//
// Two claims are checked:
//   1. Happy-path overhead: on a clean workload, enabling the full retry
//      configuration (bounded attempts + deadline watchdog)
//      costs < 2% throughput over the single-attempt default — the guard
//      is bookkeeping, not a tax.
//   2. Graceful degradation: a fault-injected min+1 run (a) with
//      transient faults and a covering retry budget makes *bit-identical*
//      decisions to the clean run, and (b) with persistent faults still
//      completes, quarantining the broken configurations instead of
//      crashing or re-simulating them forever.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <iostream>
#include <string>
#include <vector>

#include "dse/fault_injection.hpp"
#include "dse/kriging_policy.hpp"
#include "dse/min_plus_one.hpp"
#include "dse/scheduler.hpp"
#include "util/table.hpp"

namespace {

using Clock = std::chrono::steady_clock;

/// ~10 µs of real arithmetic per call: heavy enough that timing is stable,
/// light enough that the bench finishes instantly.
double busy_simulator(const ace::dse::Config& w) {
  double acc = 0.0;
  for (int k = 0; k < 600; ++k) {
    double x = 0.0;
    for (std::size_t i = 0; i < w.size(); ++i)
      x += static_cast<double>(w[i]) * (1.0 + 0.05 * static_cast<double>(i));
    acc += std::sqrt(x + static_cast<double>(k));
  }
  return acc * 1e-4;
}

/// Pure-simulation policy options (kriging disabled): what's timed and
/// compared is the evaluation path itself, not interpolation luck.
ace::dse::PolicyOptions pure_simulation(ace::util::RetryOptions retry = {}) {
  ace::dse::PolicyOptions options;
  options.min_fit_points = 1000000;
  options.retry = retry;
  return options;
}

std::vector<ace::dse::Config> overhead_workload() {
  std::vector<ace::dse::Config> work;
  for (int x = 0; x < 16; ++x)
    for (int y = 0; y < 16; ++y)
      for (int z = 0; z < 8; ++z) work.push_back({x, y, z});
  return work;
}

/// Evaluate the whole workload through evaluate_batch; best-of-7 seconds.
double time_clean_run(const ace::util::RetryOptions& retry) {
  const std::vector<ace::dse::Config> work = overhead_workload();
  double best = 1e300;
  for (int rep = 0; rep < 7; ++rep) {
    ace::dse::KrigingPolicy policy(pure_simulation(retry));
    const auto t0 = Clock::now();
    for (std::size_t at = 0; at < work.size(); at += 64) {
      const std::vector<ace::dse::Config> batch(
          work.begin() + static_cast<long>(at),
          work.begin() + static_cast<long>(std::min(at + 64, work.size())));
      (void)policy.evaluate_batch(batch, busy_simulator);
    }
    best = std::min(best,
                    std::chrono::duration<double>(Clock::now() - t0).count());
  }
  return best;
}

struct MinPlusSetup {
  ace::dse::MinPlusOneOptions options;
  MinPlusSetup() {
    options.nv = 6;
    options.w_max = 10;
    options.w_min = 2;
    options.lambda_min = 14.0;
  }
};

double lattice_lambda(const ace::dse::Config& w) {
  double acc = 0.0;
  for (std::size_t i = 0; i < w.size(); ++i)
    acc += (0.4 + 0.03 * static_cast<double>(i)) * static_cast<double>(w[i]);
  return acc;
}

}  // namespace

int main() {
  int failures = 0;

  // --- 1. Happy-path overhead of the full retry configuration ------------
  ace::util::RetryOptions guarded;
  guarded.max_attempts = 3;
  guarded.deadline_ms = 250.0;
  const double base_s = time_clean_run({});
  const double guarded_s = time_clean_run(guarded);
  const double overhead_pct = 100.0 * (guarded_s / base_s - 1.0);

  std::cout << "=== Happy-path overhead (2048 clean simulations) ===\n"
            << "single-attempt default: " << ace::util::fmt(base_s, 4)
            << " s\nretry+deadline guard:   " << ace::util::fmt(guarded_s, 4)
            << " s\noverhead: " << ace::util::fmt(overhead_pct, 2)
            << " % (budget: < 2 %)\n\n";
  if (overhead_pct >= 2.0) {
    std::cerr << "FAIL: retry guard costs >= 2% on the happy path\n";
    ++failures;
  }

  // --- 2a. Decision identity under transient faults -----------------------
  const MinPlusSetup setup;
  ace::dse::KrigingPolicy clean(pure_simulation());
  const ace::dse::MinPlusOneResult reference = ace::dse::min_plus_one(
      ace::dse::policy_batch_evaluator(clean, lattice_lambda), setup.options);

  ace::util::RetryOptions covering;
  covering.max_attempts = 2;  // Transient depth below is 1: one retry covers.
  ace::dse::KrigingPolicy transient_policy(pure_simulation(covering));
  ace::dse::FaultInjectionOptions transient_faults;
  transient_faults.seed = 21;
  transient_faults.throw_probability = 0.5;
  transient_faults.nan_probability = 0.25;
  transient_faults.faulty_calls = 1;
  const ace::dse::FaultInjectingSimulator transient_sim(lattice_lambda,
                                                        transient_faults);
  const ace::dse::MinPlusOneResult transient_run = ace::dse::min_plus_one(
      ace::dse::policy_batch_evaluator(transient_policy, transient_sim),
      setup.options);

  const bool identical =
      transient_run.w_res == reference.w_res &&
      transient_run.w_min == reference.w_min &&
      transient_run.decisions == reference.decisions &&
      transient_run.final_lambda == reference.final_lambda;
  std::cout << "=== Transient faults + covering retry budget ===\n"
            << "injected throws/NaNs: " << transient_sim.injected_throws()
            << "/" << transient_sim.injected_nans()
            << ", retries: " << transient_policy.stats().retries
            << ", quarantined: " << transient_policy.stats().quarantined
            << "\ndecisions identical to clean run: "
            << (identical ? "yes" : "NO") << "\n\n";
  if (!identical || transient_policy.stats().retries == 0 ||
      transient_policy.stats().quarantined != 0) {
    std::cerr << "FAIL: transient-fault run should match the clean run "
                 "without quarantining\n";
    ++failures;
  }

  // --- 2b. Graceful completion under persistent faults --------------------
  ace::dse::KrigingPolicy persistent_policy(pure_simulation(covering));
  ace::dse::FaultInjectionOptions persistent_faults;
  persistent_faults.seed = 5;
  persistent_faults.throw_probability = 0.10;
  persistent_faults.faulty_calls = 1000000;  // Never recovers.
  const ace::dse::FaultInjectingSimulator persistent_sim(lattice_lambda,
                                                         persistent_faults);
  const ace::dse::MinPlusOneResult degraded = ace::dse::min_plus_one(
      ace::dse::policy_batch_evaluator(persistent_policy, persistent_sim),
      setup.options);
  const ace::dse::PolicyStats& ps = persistent_policy.stats();

  std::cout << "=== Persistent faults (10% of the lattice is broken) ===\n"
            << "simulator_faults=" << ps.simulator_faults
            << " retries=" << ps.retries << " timeouts=" << ps.timeouts
            << " quarantined=" << ps.quarantined
            << " checkpoints_written=" << ps.checkpoints_written
            << "\nrun completed: yes, steps=" << degraded.decisions.size()
            << ", constraint met: " << (degraded.constraint_met ? "yes" : "no")
            << "\nfaulted candidates carry lambda = -inf, so they lose every"
            << "\ncompetition; each broken configuration is simulated at most"
            << "\nonce per retry budget, then served from quarantine\n\n";
  if (ps.quarantined == 0) {
    std::cerr << "FAIL: persistent faults should quarantine configurations\n";
    ++failures;
  }
  // Quarantine must cap re-simulation: faulted attempts can never exceed
  // (quarantined configurations) x (retry budget).
  if (ps.simulator_faults > ps.quarantined * covering.max_attempts) {
    std::cerr << "FAIL: quarantined configurations were re-simulated\n";
    ++failures;
  }

  std::cout << (failures == 0 ? "all fault-recovery checks passed\n"
                              : "FAULT-RECOVERY CHECKS FAILED\n");
  return failures == 0 ? 0 : 1;
}
