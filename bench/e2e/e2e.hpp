// Shared model of one ace_e2e invocation: the options it was started with,
// the report it prints, and the verification every optimizer answer goes
// through. Workloads live in dse_workloads.cpp (the three optimizer
// workloads) and serve_workload.cpp.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "dse/kriging_policy.hpp"
#include "dse/min_plus_one.hpp"
#include "trace.hpp"
#include "util/stats.hpp"
#include "util/stopwatch.hpp"
#include "util/thread_pool.hpp"

namespace ace::e2e {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 15.0;   ///< Length of the timed section.
  std::string trace_path;  ///< Non-empty: traced run, Chrome trace written here.
  bool smoke = false;      ///< Minimal sizes for the smoke test.

  bool traced() const { return !trace_path.empty(); }
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one invocation measured and checked.
struct Report {
  std::size_t attempted = 0;  ///< Optimizer runs or sessions executed.
  std::size_t failed = 0;     ///< Of those, runs that threw, did not finish,
                              ///< found no verified solution, or diverged
                              ///< from their reference.
  std::size_t check_failures = 0;     ///< Broken cross-checks of any kind.
  std::vector<std::string> failures;  ///< First few messages, for humans.
  /// The BENCHMARK.json metrics of this mode: end-to-end when untraced,
  /// per-layer when traced.
  std::vector<Metric> metrics;
  /// Further numbers for humans and run.py (not part of BENCHMARK.json).
  std::vector<Metric> info;
  /// Counts that repeat exactly for a given (workload, seed, seconds).
  std::vector<std::pair<std::string, std::uint64_t>> counts;

  void metric(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void note(std::string name, double value, std::string unit) {
    info.push_back({std::move(name), value, std::move(unit)});
  }
  void count(std::string name, std::uint64_t value) {
    counts.emplace_back(std::move(name), value);
  }
  /// Record a broken check; keeps the first few messages.
  void fail(const std::string& message) {
    ++check_failures;
    if (failures.size() < 20) failures.push_back(message);
  }
  bool correct() const { return failed == 0 && check_failures == 0; }
};

/// Per-layer metrics of a traced run. Every workload reports the full set
/// (zero where a layer is not exercised), so the names never change.
struct Layers {
  double sim_calls = 0, sim_busy_s = 0, sim_call_p50_us = 0, sim_call_p99_us = 0;
  double backend_batches = 0, backend_configs = 0, backend_wall_s = 0,
         backend_self_s = 0, backend_parallel_eff = 0;
  double policy_evaluations = 0, policy_interpolated_pct = 0,
         policy_neighbors_mean = 0, policy_exact_hits = 0, policy_refits = 0,
         policy_full_factorizations = 0, policy_ridge_fallbacks = 0,
         policy_kriging_failures = 0, policy_gate_rejections = 0,
         policy_self_s = 0, policy_self_us_per_eval = 0,
         policy_probe_coverage_pct = 0;
  double verify_wall_s = 0, verify_repaired_pct = 0;
  double optimizer_steps = 0, optimizer_self_s = 0;
  double store_queries = 0, store_query_p50_us = 0, store_query_total_s = 0,
         store_add_total_s = 0;
  double variogram_fits = 0, variogram_extend_total_s = 0,
         variogram_fit_total_s = 0, variogram_fit_p50_ms = 0;
  double kriging_solves = 0, kriging_solve_p50_us = 0, kriging_solve_total_s = 0;
  double serve_requests = 0, serve_parks = 0, serve_resumes = 0,
         serve_park_p50_ms = 0, serve_resume_p50_ms = 0,
         serve_sequential_steps_per_s = 0, serve_request_p50_ms = 0,
         serve_request_p99_ms = 0;
  double trace_overhead_pct = 0;

  void emit(Report& report) const;
};

/// Policy counters summed over runs or sessions.
struct PolicyTotals {
  std::uint64_t total = 0, simulated = 0, interpolated = 0, exact_hits = 0,
                refits = 0, full_factorizations = 0, ridge_fallbacks = 0,
                kriging_failures = 0, gate_rejections = 0;
  util::RunningStats neighbors;

  void add(const dse::PolicyStats& s);
  /// The policy.* count metrics (everything the stats can tell).
  void fill(Layers& layers) const;
};

/// End-to-end metrics of an untraced run.
struct EndToEnd {
  double solutions_per_s = 0;  ///< Verified solutions per second.
  double solution_cost = 0;    ///< Mean Σ of a verified configuration.
  double setup_s = 0;          ///< Median time to build the inputs and pools.
  double peak_rss_mb = 0;

  void emit(Report& report) const;
};

/// Seconds the host probe takes on `executors` threads at once: the caller
/// and, when given, `pool`'s workers; the median of their times. The probe
/// is fixed work that calls no library code (elimination on a 64×64 matrix
/// and a sort of 20 000 doubles, the kinds of work the workloads do), so a
/// code change cannot move its time, while the slow phases and bursts of a
/// shared host move it along with the workloads'.
double probe_host(util::ThreadPool* pool, std::size_t executors);

/// The timed section of an untraced run: its clock, the host probes between
/// its operations, and its set-up sampled over the whole run.
///
/// `probe` times the host probe on the workload's executors. `build` tears
/// down and rebuilds the workload's inputs and pools and returns the seconds
/// the building took. Set-up runs once at construction, before the first
/// timed call; a full-size untraced run rebuilds again at 1/5, 2/5, 3/5 and
/// 4/5 of the section. The host is probed at least every kProbeEvery
/// seconds between operations and around every set-up, so each has a probe
/// just before and just after it; probes and set-ups stop the section's
/// clock.
class Section {
 public:
  /// The probe's time on one core of the reference machine (4 vCPU, 2.1
  /// GHz) at a quiet moment.
  static constexpr double kProbeReference = 0.010;

  Section(const Options& options, std::function<double()> probe,
          std::function<double()> build);

  /// Starts the section's clock (after any untimed warm-up).
  void start();
  /// Whether the section has run its full length; a smoke run has no
  /// length beyond its first pass.
  bool full() const;
  /// The run's clock, to stamp the start of an operation.
  double now() const { return clock_.seconds(); }
  /// Between two timed operations: probes the host when due, and rebuilds
  /// when a set-up sample is due.
  void between();
  /// Ends the section: a last probe, then the set-up samples still due.
  void finish();

  /// `wall_s` of an operation that started at `start` (a now() stamp),
  /// scaled to the reference host: times kProbeReference over the mean of
  /// the probes just before and just after it. Call after finish().
  double calibrated(double start, double wall_s) const;
  /// Median of the calibrated set-up samples. Call after finish().
  double setup_s() const;
  /// Reference probe time over the run's median probe time.
  double host_speed() const;

 private:
  static constexpr int kSetupSamples = 5;
  static constexpr double kProbeEvery = 0.25;

  struct Probe {
    double start = 0.0;  ///< Run clock.
    double end = 0.0;
    double seconds = 0.0;  ///< probe_host()'s result.
  };
  struct Setup {
    double start = 0.0;  ///< Run clock.
    double seconds = 0.0;
  };

  double elapsed() const;
  void take_probe();
  void sample_setup();

  std::function<double()> probe_;
  std::function<double()> build_;
  double seconds_;
  int setup_samples_;
  bool smoke_;
  std::vector<Probe> probes_;
  std::vector<Setup> setups_;
  util::Stopwatch clock_;
  double started_ = 0.0;  ///< Run clock at start().
  double paused_s_ = 0.0;  ///< Probe and set-up time since start().
};

/// An optimizer's answer after verification.
struct Verified {
  dse::Config config;     ///< The answer, or its repair.
  double lambda = 0.0;    ///< Simulated λ(config).
  bool repaired = false;  ///< The answer missed λ_min and was repaired.
  bool feasible = false;  ///< λ(config) >= λ_min.

  bool operator==(const Verified&) const = default;
};

/// Verify an optimizer's answer the way its user must before relying on
/// it: simulate it, and when it misses λ_min (interpolated λ near the
/// threshold can be wrong), repair it by greedy +1 ascent from the answer
/// (min+1 phase 2) with every candidate simulated, on `pool` when given.
/// The repair ends feasible whenever the all-maximum configuration is.
Verified verify(const dse::MinPlusOneOptions& ascent, const dse::Config& answer,
                const dse::SimulatorFn& simulate, util::ThreadPool* pool);

/// Ends a traced run: reports spans that do not nest in their parent,
/// writes the Chrome trace to `path`, and fills the sim.* metrics.
SpanTree finish_trace(const Tracer& tracer, const std::string& path,
                      Report& report, Layers& layers);

/// splitmix64 over (seed, stream, index): every instance seed is a pure
/// function of the benchmark seed.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream,
                          std::uint64_t index);

/// Peak resident set size of this process, in MB.
double peak_rss_mb();

/// Quantile of xs (linear interpolation); 0 for an empty sample.
double quantile_or_zero(std::vector<double> xs, double q);

/// The workloads. Each returns the report of one run.
Report run_cnn_budget(const Options& options);
Report run_hevc_wordlength(const Options& options);
Report run_kriging_bound(const Options& options);
Report run_serve_sessions(const Options& options);

}  // namespace ace::e2e
