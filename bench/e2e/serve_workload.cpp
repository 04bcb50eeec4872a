// The service workload, serve_sessions: serve::SessionManager driving
// thousands of small min+1 sessions (FIR / IIR / FFT word-length problems)
// from one closed-loop client.
//
// The client keeps kInFlight sessions open, each with one outstanding
// request for kStepsPerRequest optimizer steps, and waits FIFO on the
// oldest ticket; when a session finishes, the client verifies its answer
// (see verify() in e2e.hpp) and opens the next one. Two service threads
// share a one-worker simulation pool, and only 16 of the open sessions may
// keep a live policy, so every rotation parks and resumes sessions through
// the checkpoint format. Every session, and its verified solution, must be
// bit-identical to the same spec run standalone.
#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdint>
#include <deque>
#include <exception>
#include <memory>
#include <numeric>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/benchmarks.hpp"
#include "dse/min_plus_one.hpp"
#include "dse/scheduler.hpp"
#include "e2e.hpp"
#include "serve/session.hpp"
#include "trace.hpp"
#include "util/stopwatch.hpp"
#include "util/thread_pool.hpp"

namespace ace::e2e {

namespace {

constexpr std::size_t kInFlight = 32;
constexpr std::size_t kStepsPerRequest = 4;
/// A pass over the session set takes about this share of the timed
/// section on the reference machine (4 vCPU, ~1250 sessions/s).
constexpr double kPassShare = 0.1;
constexpr double kSessionsPerSecond = 1250.0;
constexpr std::size_t kSmokeSessions = 60;
constexpr std::size_t kProbeSessions = 64;

serve::SessionManagerOptions manager_options(util::ThreadPool& pool) {
  serve::SessionManagerOptions options;
  options.service_threads = 2;
  options.queue_capacity = kInFlight;
  options.resident_capacity = 16;
  options.pool = &pool;
  return options;
}

serve::SessionSpec make_spec(std::uint64_t seed, std::size_t index) {
  const std::uint64_t s = derive_seed(seed, 4, index);
  core::SignalBenchOptions options;
  options.samples = 64;
  options.seed = s;
  options.lambda_min_db = 40.0 + static_cast<double>((s >> 32) % 7);
  options.w_max = 16;
  options.w_min = 2;
  core::ApplicationBenchmark bench;
  switch (index % 3) {
    case 0: bench = core::make_fir_benchmark(options); break;
    case 1: bench = core::make_iir_benchmark(options); break;
    default: bench = core::make_fft_benchmark(options); break;
  }
  serve::SessionSpec spec;
  spec.name = bench.name + " #" + std::to_string(index);
  spec.optimizer = serve::OptimizerKind::kMinPlusOne;
  spec.min_plus = bench.min_plus_one;
  spec.simulate = bench.simulate;
  return spec;
}

/// A session run standalone: the identity reference.
struct Reference {
  dse::MinPlusOneResult result;
  dse::PolicyStats stats;
  std::size_t steps = 0;  ///< Cursor step calls, as the service counts them.
  Verified verified;
};

Reference run_standalone(const serve::SessionSpec& spec) {
  Reference ref;
  dse::KrigingPolicy policy(spec.policy);
  const dse::BatchEvaluateFn evaluate =
      dse::policy_batch_evaluator(policy, spec.simulate);
  dse::MinPlusOneCursor cursor = dse::make_min_plus_one_cursor(spec.min_plus);
  bool more = true;
  while (more) {
    more = dse::min_plus_one_step(evaluate, spec.min_plus, cursor);
    ++ref.steps;
  }
  ref.result = dse::min_plus_one_result(cursor, spec.min_plus);
  ref.stats = policy.stats();
  ref.verified =
      verify(spec.min_plus, ref.result.w_res, spec.simulate, nullptr);
  return ref;
}

bool identical(const dse::MinPlusOneResult& a, const dse::MinPlusOneResult& b) {
  return a.decisions == b.decisions && a.w_min == b.w_min &&
         a.w_res == b.w_res && a.constraint_met == b.constraint_met &&
         std::bit_cast<std::uint64_t>(a.final_lambda) ==
             std::bit_cast<std::uint64_t>(b.final_lambda);
}

struct Pass {
  double wall_s = 0.0;
  serve::ServeStats stats;
  std::vector<double> latencies_ms;
  std::vector<double> session_ms;  ///< First submit to verified solution.
  std::vector<Verified> verified;
  std::unique_ptr<serve::SessionManager> manager;
  std::vector<serve::SessionId> ids;

  double solutions_per_s() const {
    return static_cast<double>(verified.size()) / std::max(wall_s, 1e-9);
  }
};

/// One timed pass of the closed-loop client over every spec, verifying
/// each session's answer as it finishes, then the untimed identity check
/// of every session against its reference.
Pass serve_pass(const std::vector<serve::SessionSpec>& specs,
                util::ThreadPool& pool, const std::vector<Reference>& reference,
                Report& report, Tracer* tracer) {
  Pass pass;
  const std::size_t n = specs.size();
  std::vector<double> started(n, 0.0);
  try {
    pass.verified.resize(n);
    const util::Stopwatch watch;
    pass.manager =
        std::make_unique<serve::SessionManager>(manager_options(pool));
    serve::SessionManager& manager = *pass.manager;
    pass.ids.reserve(n);
    for (const serve::SessionSpec& spec : specs)
      pass.ids.push_back(manager.create(spec));
    std::deque<std::pair<serve::Ticket, std::size_t>> open;
    const auto submit = [&](std::size_t i) {
      std::optional<ScopedSpan> span;
      if (tracer) span.emplace(*tracer, "serve.submit", i + 1, kStepsPerRequest);
      open.emplace_back(manager.submit(pass.ids[i], kStepsPerRequest), i);
    };
    std::size_t next = 0;
    const auto start_next = [&] {
      started[next] = watch.seconds();
      submit(next++);
    };
    while (next < n && open.size() < kInFlight) start_next();
    while (!open.empty()) {
      const auto [ticket, i] = open.front();
      open.pop_front();
      {
        std::optional<ScopedSpan> span;
        if (tracer) span.emplace(*tracer, "serve.wait", i + 1);
        manager.wait(ticket);
      }
      if (!manager.progress(pass.ids[i]).finished) {
        submit(i);
        continue;
      }
      {
        std::optional<ScopedSpan> span;
        if (tracer) span.emplace(*tracer, "verify", i + 1);
        pass.verified[i] =
            verify(specs[i].min_plus,
                   manager.min_plus_one_result(pass.ids[i]).w_res,
                   specs[i].simulate, nullptr);
      }
      pass.session_ms.push_back((watch.seconds() - started[i]) * 1e3);
      if (next < n) start_next();
    }
    pass.wall_s = watch.seconds();
  } catch (const std::exception& e) {
    report.attempted += n;
    report.failed += n;
    report.fail(std::string("serve pass threw: ") + e.what());
    pass.manager.reset();
    return pass;
  }

  serve::SessionManager& manager = *pass.manager;
  pass.stats = manager.stats();
  pass.latencies_ms = manager.request_latencies_ms();
  for (std::size_t i = 0; i < n; ++i) {
    ++report.attempted;
    const serve::SessionProgress progress = manager.progress(pass.ids[i]);
    if (!progress.finished || !pass.verified[i].feasible) {
      ++report.failed;
      report.fail(specs[i].name + ": no verified solution meets λ_min");
    } else if (!identical(manager.min_plus_one_result(pass.ids[i]),
                          reference[i].result) ||
               progress.stats != reference[i].stats ||
               progress.steps != reference[i].steps ||
               pass.verified[i] != reference[i].verified) {
      ++report.failed;
      report.fail(specs[i].name + ": session diverged from its standalone run");
    }
  }
  return pass;
}

/// Client-side park and resume latency on finished sessions: make each
/// resident, time park(id), then time submit(id, 0) + wait (a resume is a
/// checkpoint parse plus restore replay). The session must still match its
/// reference afterwards.
void park_resume_probe(Pass& pass, const std::vector<Reference>& reference,
                       Tracer& tracer, Report& report,
                       std::vector<double>& park_ms,
                       std::vector<double>& resume_ms) {
  serve::SessionManager& manager = *pass.manager;
  const std::size_t n = std::min(kProbeSessions, pass.ids.size());
  for (std::size_t i = 0; i < n; ++i) {
    const serve::SessionId id = pass.ids[i];
    manager.wait(manager.submit(id, 0));
    util::Stopwatch watch;
    {
      const ScopedSpan span(tracer, "serve.park", i + 1);
      manager.park(id);
    }
    park_ms.push_back(watch.milliseconds());
    watch.restart();
    {
      const ScopedSpan span(tracer, "serve.resume", i + 1);
      manager.wait(manager.submit(id, 0));
    }
    resume_ms.push_back(watch.milliseconds());
    if (!identical(manager.min_plus_one_result(id), reference[i].result))
      report.fail("session changed across park and resume");
  }
}

/// The same specs with every simulator call recorded as a sim span tagged
/// with its session.
std::vector<serve::SessionSpec> traced_specs(
    const std::vector<serve::SessionSpec>& specs, Tracer& tracer) {
  std::vector<serve::SessionSpec> out = specs;
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i].simulate = [inner = specs[i].simulate, &tracer,
                       op = i + 1](const dse::Config& config) {
      const ScopedSpan span(tracer, "sim", op);
      return inner(config);
    };
  }
  return out;
}

}  // namespace

Report run_serve_sessions(const Options& options) {
  Report report;
  const std::size_t sessions =
      options.smoke
          ? kSmokeSessions
          : std::max<std::size_t>(
                2 * kInFlight,
                static_cast<std::size_t>(options.seconds * kPassShare *
                                             kSessionsPerSecond +
                                         0.5));

  // Set-up: the session specs (inputs, reference outputs, quantizers) and
  // the shared pool.
  std::vector<serve::SessionSpec> specs;
  std::unique_ptr<util::ThreadPool> pool;
  // The host probe runs between passes, when only the client and the pool
  // worker are alive.
  Section section(
      options, [&] { return probe_host(pool.get(), 2); },
      [&] {
        specs.clear();
        pool.reset();
        const util::Stopwatch watch;
        specs.reserve(sessions);
        for (std::size_t i = 0; i < sessions; ++i)
          specs.push_back(make_spec(options.seed, i));
        pool = std::make_unique<util::ThreadPool>(1);
        return watch.seconds();
      });

  // The standalone pass: identity reference for every session, and the
  // sequential throughput the service is compared against. It also warms
  // up the process before the timed passes.
  std::vector<Reference> reference;
  reference.reserve(sessions);
  const util::Stopwatch sequential;
  for (const serve::SessionSpec& spec : specs)
    reference.push_back(run_standalone(spec));
  const double sequential_s = sequential.seconds();
  PolicyTotals expected;  ///< Every pass's policy counters (identity check).
  std::uint64_t steps = 0;
  std::uint64_t cost = 0;
  std::uint64_t repaired = 0;
  for (const Reference& ref : reference) {
    expected.add(ref.stats);
    steps += ref.steps;
    const dse::Config& w = ref.verified.config;
    cost += static_cast<std::uint64_t>(std::accumulate(w.begin(), w.end(), 0));
    if (ref.verified.repaired) ++repaired;
  }
  const double repaired_pct =
      100.0 * static_cast<double>(repaired) / static_cast<double>(sessions);
  const double sequential_steps_per_s =
      static_cast<double>(steps) / std::max(sequential_s, 1e-9);

  std::vector<double> latencies_ms;
  std::uint64_t requests = 0;
  if (!options.traced()) {
    // Passes over the same sessions until the section is full; the median
    // pass, at the reference host speed, gives the rate.
    std::vector<double> raw_s;
    std::vector<double> calibrated_s;
    std::vector<double> session_ms;
    std::uint64_t parks = 0;
    std::uint64_t resumes = 0;
    const std::size_t min_passes = options.smoke ? 1 : 2;
    std::vector<double> starts;
    section.start();
    for (std::size_t p = 0; p < min_passes || !section.full(); ++p) {
      section.between();
      const double start = section.now();
      Pass pass = serve_pass(specs, *pool, reference, report, nullptr);
      if (!pass.manager) continue;
      starts.push_back(start);
      raw_s.push_back(pass.wall_s);
      latencies_ms.insert(latencies_ms.end(), pass.latencies_ms.begin(),
                          pass.latencies_ms.end());
      session_ms.insert(session_ms.end(), pass.session_ms.begin(),
                        pass.session_ms.end());
      requests = pass.stats.requests;
      parks += pass.stats.parks;
      resumes += pass.stats.resumes;
    }
    section.finish();
    for (std::size_t p = 0; p < raw_s.size(); ++p)
      calibrated_s.push_back(section.calibrated(starts[p], raw_s[p]));
    const auto per_s = [](const std::vector<double>& pass_s) {
      return pass_s.empty() ? 0.0 : 1.0 / util::median(pass_s);
    };
    EndToEnd e2e;
    e2e.solutions_per_s = static_cast<double>(sessions) * per_s(calibrated_s);
    e2e.solution_cost =
        static_cast<double>(cost) / static_cast<double>(sessions);
    e2e.setup_s = section.setup_s();
    e2e.peak_rss_mb = peak_rss_mb();
    e2e.emit(report);
    report.note("raw_solutions_per_s",
                static_cast<double>(sessions) * per_s(raw_s), "1/s");
    report.note("host_speed", section.host_speed(), "ratio");
    report.note("steps_per_s", static_cast<double>(steps) * per_s(raw_s),
                "1/s");
    report.note("request_p50_ms", quantile_or_zero(latencies_ms, 0.50), "ms");
    report.note("request_p99_ms", quantile_or_zero(latencies_ms, 0.99), "ms");
    report.note("session_p50_ms", quantile_or_zero(session_ms, 0.50), "ms");
    report.note("passes", static_cast<double>(raw_s.size()), "count");
    report.note("parks", static_cast<double>(parks), "count");
    report.note("resumes", static_cast<double>(resumes), "count");
    report.note("sequential_steps_per_s", sequential_steps_per_s, "1/s");
  } else {
    // Pairs of passes, untraced and traced, in alternating order until the
    // timed section is full; each traced pass is followed by the
    // park/resume probe on its manager.
    Tracer tracer;
    const std::vector<serve::SessionSpec> spanned = traced_specs(specs, tracer);
    std::vector<double> slowdowns;  ///< Traced wall / untraced wall.
    serve::ServeStats served;       ///< Summed over traced passes.
    std::size_t traced_passes = 0;
    std::vector<double> park_ms;
    std::vector<double> resume_ms;
    section.start();
    std::size_t pairs = 0;
    do {
      double plain_s = 0.0;
      double traced_s = 0.0;
      const bool traced_first = pairs++ % 2 == 1;
      for (int half = 0; half < 2; ++half) {
        const bool traced = (half == 0) == traced_first;
        Pass pass = serve_pass(traced ? spanned : specs, *pool, reference,
                               report, traced ? &tracer : nullptr);
        if (!pass.manager) continue;
        if (!traced) {
          plain_s = pass.wall_s;
          latencies_ms.insert(latencies_ms.end(), pass.latencies_ms.begin(),
                              pass.latencies_ms.end());
          requests = pass.stats.requests;
          continue;
        }
        traced_s = pass.wall_s;
        ++traced_passes;
        served.requests += pass.stats.requests;
        served.parks += pass.stats.parks;
        served.resumes += pass.stats.resumes;
        park_resume_probe(pass, reference, tracer, report, park_ms, resume_ms);
      }
      if (plain_s > 0.0 && traced_s > 0.0)
        slowdowns.push_back(traced_s / plain_s);
    } while (!section.full());

    // Counts are per pass: the policy's from the references, which every
    // pass matches exactly; the service's averaged over the traced passes.
    Layers layers;
    finish_trace(tracer, options.trace_path, report, layers);
    expected.fill(layers);
    layers.verify_repaired_pct = repaired_pct;
    layers.optimizer_steps = static_cast<double>(steps);
    const double per_pass =
        traced_passes == 0 ? 0.0 : 1.0 / static_cast<double>(traced_passes);
    layers.serve_requests = static_cast<double>(served.requests) * per_pass;
    layers.serve_parks = static_cast<double>(served.parks) * per_pass;
    layers.serve_resumes = static_cast<double>(served.resumes) * per_pass;
    layers.serve_park_p50_ms = quantile_or_zero(park_ms, 0.5);
    layers.serve_resume_p50_ms = quantile_or_zero(resume_ms, 0.5);
    layers.serve_sequential_steps_per_s = sequential_steps_per_s;
    layers.serve_request_p50_ms = quantile_or_zero(latencies_ms, 0.50);
    layers.serve_request_p99_ms = quantile_or_zero(latencies_ms, 0.99);
    layers.trace_overhead_pct =
        slowdowns.empty() ? 0.0 : 100.0 * (util::median(slowdowns) - 1.0);
    layers.emit(report);
  }

  report.note("repaired_pct", repaired_pct, "%");
  report.count("sessions", sessions);
  report.count("steps", steps);
  report.count("requests", requests);
  report.count("evaluations", expected.total);
  report.count("simulated", expected.simulated);
  report.count("interpolated", expected.interpolated);
  report.count("refits", expected.refits);
  report.count("repaired", repaired);
  report.count("solution_cost", cost);
  return report;
}

}  // namespace ace::e2e
