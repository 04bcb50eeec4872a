// Shared parts of ace_e2e: metric emission, the timed section, policy
// totals, verification of optimizer answers, the trace wrap-up, seeds and
// process statistics.
#include <sys/resource.h>

#include <algorithm>
#include <fstream>
#include <numeric>

#include "e2e.hpp"

namespace ace::e2e {

void Layers::emit(Report& r) const {
  r.metric("sim.calls", sim_calls, "count");
  r.metric("sim.busy_s", sim_busy_s, "s");
  r.metric("sim.call_p50_us", sim_call_p50_us, "us");
  r.metric("sim.call_p99_us", sim_call_p99_us, "us");
  r.metric("backend.batches", backend_batches, "count");
  r.metric("backend.configs", backend_configs, "count");
  r.metric("backend.wall_s", backend_wall_s, "s");
  r.metric("backend.self_s", backend_self_s, "s");
  r.metric("backend.parallel_eff", backend_parallel_eff, "ratio");
  r.metric("policy.evaluations", policy_evaluations, "count");
  r.metric("policy.interpolated_pct", policy_interpolated_pct, "%");
  r.metric("policy.neighbors_mean", policy_neighbors_mean, "count");
  r.metric("policy.exact_hits", policy_exact_hits, "count");
  r.metric("policy.refits", policy_refits, "count");
  r.metric("policy.full_factorizations", policy_full_factorizations, "count");
  r.metric("policy.ridge_fallbacks", policy_ridge_fallbacks, "count");
  r.metric("policy.kriging_failures", policy_kriging_failures, "count");
  r.metric("policy.gate_rejections", policy_gate_rejections, "count");
  r.metric("policy.self_s", policy_self_s, "s");
  r.metric("policy.self_us_per_eval", policy_self_us_per_eval, "us");
  r.metric("policy.probe_coverage_pct", policy_probe_coverage_pct, "%");
  r.metric("verify.wall_s", verify_wall_s, "s");
  r.metric("verify.repaired_pct", verify_repaired_pct, "%");
  r.metric("optimizer.steps", optimizer_steps, "count");
  r.metric("optimizer.self_s", optimizer_self_s, "s");
  r.metric("store.queries", store_queries, "count");
  r.metric("store.query_p50_us", store_query_p50_us, "us");
  r.metric("store.query_total_s", store_query_total_s, "s");
  r.metric("store.add_total_s", store_add_total_s, "s");
  r.metric("variogram.fits", variogram_fits, "count");
  r.metric("variogram.extend_total_s", variogram_extend_total_s, "s");
  r.metric("variogram.fit_total_s", variogram_fit_total_s, "s");
  r.metric("variogram.fit_p50_ms", variogram_fit_p50_ms, "ms");
  r.metric("kriging.solves", kriging_solves, "count");
  r.metric("kriging.solve_p50_us", kriging_solve_p50_us, "us");
  r.metric("kriging.solve_total_s", kriging_solve_total_s, "s");
  r.metric("serve.requests", serve_requests, "count");
  r.metric("serve.parks", serve_parks, "count");
  r.metric("serve.resumes", serve_resumes, "count");
  r.metric("serve.park_p50_ms", serve_park_p50_ms, "ms");
  r.metric("serve.resume_p50_ms", serve_resume_p50_ms, "ms");
  r.metric("serve.sequential_steps_per_s", serve_sequential_steps_per_s, "1/s");
  r.metric("serve.request_p50_ms", serve_request_p50_ms, "ms");
  r.metric("serve.request_p99_ms", serve_request_p99_ms, "ms");
  r.metric("trace.overhead_pct", trace_overhead_pct, "%");
}

void EndToEnd::emit(Report& r) const {
  r.metric("solutions_per_s", solutions_per_s, "1/s");
  r.metric("solution_cost", solution_cost, "count");
  r.metric("peak_rss_mb", peak_rss_mb, "MB");
  r.metric("setup_s", setup_s, "s");
}

namespace {

/// Written once per probe, by the caller, so the work is not optimized away.
volatile double g_probe_sink = 0.0;

/// The host probe's fixed work, five times over: Gaussian elimination on a
/// 64×64 matrix and a sort of 20 000 doubles, both filled from a fixed
/// linear congruential sequence. Returns a value that depends on all of it.
double probe_work() {
  constexpr std::size_t n = 64;
  std::uint64_t state = 0x9E3779B97F4A7C15ULL;
  const auto next = [&state] {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return static_cast<double>(state >> 11) * 0x1p-53;
  };
  std::vector<double> a(n * n);
  std::vector<double> v(20000);
  double sum = 0.0;
  for (int rep = 0; rep < 5; ++rep) {
    for (double& x : a) x = next();
    for (std::size_t k = 0; k < n; ++k) {
      for (std::size_t i = k + 1; i < n; ++i) {
        const double f = a[i * n + k] / (a[k * n + k] + 1.0);
        for (std::size_t j = k; j < n; ++j) a[i * n + j] -= f * a[k * n + j];
      }
    }
    for (double& x : v) x = next();
    std::sort(v.begin(), v.end());
    sum += a[n * n - 1] + v[v.size() / 2];
  }
  return sum;
}

}  // namespace

double probe_host(util::ThreadPool* pool, std::size_t executors) {
  std::vector<double> seconds(pool == nullptr ? 1 : executors);
  std::vector<double> results(seconds.size());
  const auto one = [&](std::size_t i) {
    const util::Stopwatch watch;
    results[i] = probe_work();
    seconds[i] = watch.seconds();
  };
  if (pool == nullptr)
    one(0);
  else
    pool->run_indexed(seconds.size(), one);
  g_probe_sink = std::accumulate(results.begin(), results.end(), 0.0);
  return util::median(seconds);
}

Section::Section(const Options& options, std::function<double()> probe,
                 std::function<double()> build)
    : probe_(std::move(probe)),
      build_(std::move(build)),
      seconds_(options.seconds),
      setup_samples_(options.traced() || options.smoke ? 1 : kSetupSamples),
      smoke_(options.smoke) {
  sample_setup();
}

void Section::start() {
  started_ = clock_.seconds();
  paused_s_ = 0.0;
}

double Section::elapsed() const {
  return clock_.seconds() - started_ - paused_s_;
}

bool Section::full() const { return smoke_ || elapsed() >= seconds_; }

void Section::take_probe() {
  Probe p;
  p.start = clock_.seconds();
  p.seconds = probe_();
  p.end = clock_.seconds();
  probes_.push_back(p);
  paused_s_ += p.end - p.start;
}

void Section::sample_setup() {
  const double start = clock_.seconds();
  setups_.push_back({start, build_()});
  paused_s_ += clock_.seconds() - start;
  take_probe();
}

void Section::between() {
  // Set-up sample j (the one at construction is 0) is due at j/samples of
  // the section.
  const auto taken = static_cast<int>(setups_.size());
  if (taken < setup_samples_ && elapsed() * setup_samples_ >= seconds_ * taken) {
    take_probe();
    sample_setup();
  } else if (clock_.seconds() - probes_.back().end >= kProbeEvery) {
    take_probe();
  }
}

void Section::finish() {
  take_probe();
  while (static_cast<int>(setups_.size()) < setup_samples_) sample_setup();
}

double Section::calibrated(double start, double wall_s) const {
  double sum = 0.0;
  int count = 0;
  const Probe* before = nullptr;
  for (const Probe& p : probes_) {
    if (p.end <= start) {
      before = &p;
    } else if (p.start >= start + wall_s) {
      sum += p.seconds;  // The first probe after the operation.
      ++count;
      break;
    }
  }
  if (before != nullptr) {
    sum += before->seconds;
    ++count;
  }
  return count == 0 ? wall_s : wall_s * kProbeReference * count / sum;
}

double Section::setup_s() const {
  std::vector<double> seconds;
  for (const Setup& s : setups_)
    seconds.push_back(calibrated(s.start, s.seconds));
  return util::median(seconds);
}

double Section::host_speed() const {
  std::vector<double> seconds;
  for (const Probe& p : probes_) seconds.push_back(p.seconds);
  return kProbeReference / util::median(seconds);
}

void PolicyTotals::add(const dse::PolicyStats& s) {
  total += s.total;
  simulated += s.simulated;
  interpolated += s.interpolated;
  exact_hits += s.exact_hits;
  refits += s.refits;
  full_factorizations += s.full_factorizations;
  ridge_fallbacks += s.ridge_fallbacks;
  kriging_failures += s.kriging_failures;
  gate_rejections +=
      s.variance_rejections + s.loo_rejections + s.sequential_rejections;
  neighbors.merge(s.neighbors_per_interpolation);
}

void PolicyTotals::fill(Layers& layers) const {
  layers.policy_evaluations = static_cast<double>(total);
  layers.policy_interpolated_pct =
      total == 0 ? 0.0
                 : 100.0 * static_cast<double>(interpolated) /
                       static_cast<double>(total);
  layers.policy_neighbors_mean = neighbors.empty() ? 0.0 : neighbors.mean();
  layers.policy_exact_hits = static_cast<double>(exact_hits);
  layers.policy_refits = static_cast<double>(refits);
  layers.policy_full_factorizations = static_cast<double>(full_factorizations);
  layers.policy_ridge_fallbacks = static_cast<double>(ridge_fallbacks);
  layers.policy_kriging_failures = static_cast<double>(kriging_failures);
  layers.policy_gate_rejections = static_cast<double>(gate_rejections);
}

Verified verify(const dse::MinPlusOneOptions& ascent, const dse::Config& answer,
                const dse::SimulatorFn& simulate, util::ThreadPool* pool) {
  const dse::BatchEvaluateFn exact =
      [&](const std::vector<dse::Config>& batch) {
        std::vector<double> values(batch.size());
        const auto one = [&](std::size_t i) { values[i] = simulate(batch[i]); };
        if (pool != nullptr) {
          pool->run_indexed(batch.size(), one);
        } else {
          for (std::size_t i = 0; i < batch.size(); ++i) one(i);
        }
        return values;
      };
  // Phase 2 from the answer simulates the answer first and stops there
  // when it meets λ_min.
  const dse::MinPlusOneResult result =
      dse::optimize_word_lengths(exact, ascent, answer);
  return {result.w_res, result.final_lambda, !result.decisions.empty(),
          result.constraint_met};
}

SpanTree finish_trace(const Tracer& tracer, const std::string& path,
                      Report& report, Layers& layers) {
  SpanTree tree(tracer.collect());
  for (const std::string& v : tree.nesting_violations()) report.fail(v);
  std::ofstream out(path, std::ios::trunc);
  write_chrome_trace(out, tree.spans());
  if (!out.good()) report.fail("cannot write trace file " + path);

  const std::vector<double> sim_s = tree.durations("sim");
  layers.sim_calls = static_cast<double>(sim_s.size());
  layers.sim_busy_s = tree.total_seconds("sim");
  layers.sim_call_p50_us = quantile_or_zero(sim_s, 0.50) * 1e6;
  layers.sim_call_p99_us = quantile_or_zero(sim_s, 0.99) * 1e6;
  layers.verify_wall_s = tree.total_seconds("verify");
  return tree;
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream,
                          std::uint64_t index) {
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ULL + stream * 0xBF58476D1CE4E5B9ULL +
                    index * 0x94D049BB133111EBULL + 0x632BE59BD9B4E019ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

double peak_rss_mb() {
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB.
}

double quantile_or_zero(std::vector<double> xs, double q) {
  return xs.empty() ? 0.0 : util::quantile(std::move(xs), q);
}

}  // namespace ace::e2e
