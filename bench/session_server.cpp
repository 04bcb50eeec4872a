// Multi-session service bench: replay hundreds of interleaved optimizer
// sessions (mixed FIR/IIR/FFT word-length problems) through
// serve::SessionManager and verify each session's decision sequence is
// bit-identical to running it standalone, while reporting service
// throughput and p50/p99 request latency.
//
// The knobs are deliberately hostile: more sessions than resident slots
// (park/resume churn on every rotation), a queue much smaller than the
// request volume (persistent backpressure), and several service threads
// sharing one simulation pool. If the determinism contract holds here, it
// holds.
//
// Output: human-readable summary plus a JSON report, written to
// BENCH_serve.json in the working directory or to --out=PATH (the standing
// perf-trajectory artifact; CI uploads it, and a snapshot is committed).
// sessions, requests, steps and divergent_sessions repeat exactly from run
// to run (tools/bench_compare.py checks them against the snapshot); parks,
// resumes and backpressure waits depend on thread timing.
// Exit code 1 on any per-session divergence.
#include <algorithm>
#include <cstddef>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench_context.hpp"
#include "core/benchmarks.hpp"
#include "dse/min_plus_one.hpp"
#include "dse/scheduler.hpp"
#include "serve/session.hpp"
#include "util/stopwatch.hpp"
#include "util/thread_pool.hpp"

namespace {

namespace d = ace::dse;
namespace s = ace::serve;

constexpr std::size_t kSessions = 210;  // >= 200 per the acceptance bar.

/// Mixed workload: rotate FIR (Nv=2) / IIR (Nv=5) / FFT (Nv=10), varying
/// seed and constraint so no two sessions share a surface. Small lattices
/// and inputs keep a 2x(210-run) bench in seconds.
s::SessionSpec make_spec(std::size_t i) {
  ace::core::SignalBenchOptions opt;
  opt.samples = 64;  // FFT requires a multiple of 64.
  opt.seed = 1000 + static_cast<std::uint64_t>(i);
  opt.lambda_min_db = 28.0 + static_cast<double>(i % 7);
  opt.w_max = 10;
  opt.w_min = 2;
  ace::core::ApplicationBenchmark bench;
  switch (i % 3) {
    case 0: bench = ace::core::make_fir_benchmark(opt); break;
    case 1: bench = ace::core::make_iir_benchmark(opt); break;
    default: bench = ace::core::make_fft_benchmark(opt); break;
  }
  s::SessionSpec spec;
  spec.name = bench.name + " #" + std::to_string(i);
  spec.optimizer = s::OptimizerKind::kMinPlusOne;
  spec.min_plus = bench.min_plus_one;
  spec.simulate = bench.simulate;
  return spec;
}

d::MinPlusOneResult standalone(const s::SessionSpec& spec) {
  d::KrigingPolicy policy(spec.policy);
  return d::min_plus_one(d::policy_batch_evaluator(policy, spec.simulate),
                         spec.min_plus);
}

bool identical(const d::MinPlusOneResult& a, const d::MinPlusOneResult& b) {
  return a.decisions == b.decisions && a.w_min == b.w_min &&
         a.w_res == b.w_res && a.constraint_met == b.constraint_met &&
         a.final_lambda == b.final_lambda;  // Bit-exact, not approximate.
}

double percentile(std::vector<double> xs, double p) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const auto rank = static_cast<std::size_t>(
      p * static_cast<double>(xs.size() - 1) + 0.5);
  return xs[std::min(rank, xs.size() - 1)];
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_serve.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--out=", 0) != 0) {
      std::cerr << "usage: " << argv[0] << " [--out=PATH]\n";
      return 2;
    }
    out_path = arg.substr(6);
  }

  std::cout << "=== session_server: " << kSessions
            << " interleaved DSE sessions (FIR/IIR/FFT) ===\n";

  std::vector<s::SessionSpec> specs;
  specs.reserve(kSessions);
  for (std::size_t i = 0; i < kSessions; ++i) specs.push_back(make_spec(i));

  // Sequential reference: each session standalone, one after another.
  ace::util::Stopwatch watch;
  std::vector<d::MinPlusOneResult> reference;
  reference.reserve(kSessions);
  for (const auto& spec : specs) reference.push_back(standalone(spec));
  const double sequential_s = watch.seconds();

  // Concurrent service pass under residency pressure and backpressure.
  ace::util::ThreadPool pool(4);
  s::SessionManagerOptions options;
  options.service_threads = 4;
  options.queue_capacity = 32;
  options.resident_capacity = 16;
  options.pool = &pool;

  watch.restart();
  s::SessionManager manager(options);
  std::vector<s::SessionId> ids;
  ids.reserve(kSessions);
  for (const auto& spec : specs) ids.push_back(manager.create(spec));
  // Interleave: two rotations of short slices (every session gets parked
  // and resumed as its turn comes back around), then run each to the end.
  for (int round = 0; round < 2; ++round)
    for (const s::SessionId id : ids) (void)manager.submit(id, 3);
  for (const s::SessionId id : ids) (void)manager.submit(id, 100000);
  manager.drain();
  const double concurrent_s = watch.seconds();

  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < kSessions; ++i) {
    if (!manager.progress(ids[i]).finished ||
        !identical(manager.min_plus_one_result(ids[i]), reference[i])) {
      ++mismatches;
      std::cout << "DIVERGED: session " << i << " (" << specs[i].name
                << ")\n";
    }
  }

  const s::ServeStats stats = manager.stats();
  const std::vector<double> latencies = manager.request_latencies_ms();
  const double p50 = percentile(latencies, 0.50);
  const double p99 = percentile(latencies, 0.99);
  const double throughput =
      static_cast<double>(stats.steps) / std::max(concurrent_s, 1e-9);

  std::cout << "sessions:            " << kSessions << "\n"
            << "requests:            " << stats.requests << "\n"
            << "optimizer steps:     " << stats.steps << "\n"
            << "parks / resumes:     " << stats.parks << " / "
            << stats.resumes << "\n"
            << "backpressure waits:  " << stats.backpressure_waits << "\n"
            << "sequential wall:     " << sequential_s << " s\n"
            << "service wall:        " << concurrent_s << " s\n"
            << "throughput:          " << throughput << " steps/s\n"
            << "latency p50 / p99:   " << p50 << " / " << p99 << " ms\n"
            << "decision identity:   "
            << (mismatches == 0 ? "all sessions bit-identical"
                                : std::to_string(mismatches) + " DIVERGED")
            << "\n";

  std::ofstream json(out_path, std::ios::trunc);
  json << "{\n";
  ace::bench::write_context_json(json, "  ");
  json << "  \"sessions\": " << kSessions << ",\n"
       << "  \"requests\": " << stats.requests << ",\n"
       << "  \"steps\": " << stats.steps << ",\n"
       << "  \"parks\": " << stats.parks << ",\n"
       << "  \"resumes\": " << stats.resumes << ",\n"
       << "  \"backpressure_waits\": " << stats.backpressure_waits << ",\n"
       << "  \"sequential_wall_s\": " << sequential_s << ",\n"
       << "  \"service_wall_s\": " << concurrent_s << ",\n"
       << "  \"throughput_steps_per_s\": " << throughput << ",\n"
       << "  \"latency_p50_ms\": " << p50 << ",\n"
       << "  \"latency_p99_ms\": " << p99 << ",\n"
       << "  \"divergent_sessions\": " << mismatches << "\n"
       << "}\n";
  json.flush();
  if (!json.good()) {
    std::cout << "warning: failed to write " << out_path << "\n";
    return 1;
  }
  return mismatches == 0 ? 0 : 1;
}
