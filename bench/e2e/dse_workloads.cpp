// The three optimizer workloads: cnn_budget, hevc_wordlength and
// kriging_bound. Each builds a set of problem instances from the seed,
// runs the benchmark's optimizer on every instance through a fresh
// KrigingPolicy (paper defaults: d = 3, Nn_min = 1, neighbour-count gate),
// and verifies each answer (see verify() in e2e.hpp). One operation is one
// instance taken to a verified solution.
//
// Untraced run: the library's own composition (policy_batch_evaluator over
// a PooledBatchSimulator) with only a stopwatch around each operation.
// Traced run: the same calls wrapped in spans — optimizer.step around each
// cursor step, policy.evaluate_batch around KrigingPolicy::evaluate_batch
// (the backend overload, which is exactly what the SimulatorFn overload
// runs), backend.simulate_many in a BatchSimulator decorator around the
// PooledBatchSimulator, verify around the verification, and sim around
// every simulator call — followed by the replay probes of the store,
// variogram and kriging layers.
#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <exception>
#include <memory>
#include <numeric>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/benchmarks.hpp"
#include "dse/batch_sim.hpp"
#include "dse/kriging_policy.hpp"
#include "dse/min_plus_one.hpp"
#include "dse/scheduler.hpp"
#include "dse/sim_store.hpp"
#include "dse/steepest_descent.hpp"
#include "e2e.hpp"
#include "kriging/empirical_variogram.hpp"
#include "kriging/fit.hpp"
#include "kriging/system.hpp"
#include "trace.hpp"
#include "util/stopwatch.hpp"
#include "util/thread_pool.hpp"

namespace ace::e2e {

namespace {

/// SqueezeNet images per instance. The library default is 250. Random
/// networks differ widely in noise tolerance (an instance takes 0.02 to
/// 0.25 s at 10 images), so a run needs many instances for its rate to
/// repeat across seeds; 10 images fit about 120 into the timed section.
constexpr std::size_t kCnnImages = 10;

/// The timed section runs every problem once, then repeats problems in
/// order until it is full. The problem count is sized so that one pass
/// takes about kFill of the section on the reference machine (4 vCPU): as
/// many problems as fit keep the instance mix, and so the seed-to-seed
/// spread, narrow.
constexpr double kFill = 0.85;

/// Untimed warm-up before the timed section (page faults, pool wake-up,
/// CPU frequency).
constexpr double kWarmupSeconds = 0.5;

struct DseWorkload {
  const char* name;
  std::uint64_t stream;        ///< Seed stream of the instances.
  double problems_per_second;  ///< Sizing on the reference machine.
  std::size_t pool_workers;    ///< 0: simulations run inline.
  core::ApplicationBenchmark (*make)(std::uint64_t seed);
  /// Share of the problems taken from each band (see band()); all zero
  /// takes the problems as they come.
  std::array<double, 3> band_shares;
};

core::ApplicationBenchmark make_cnn(std::uint64_t seed) {
  core::CnnBenchOptions options;
  options.images = kCnnImages;
  options.seed = seed;
  return core::make_squeezenet_benchmark(options);
}

core::ApplicationBenchmark make_hevc(std::uint64_t seed) {
  core::HevcBenchOptions options;
  options.seed = seed;
  return core::make_hevc_benchmark(options);
}

core::ApplicationBenchmark make_hevc_block(std::uint64_t seed) {
  core::HevcBenchOptions options;
  options.jobs = 1;
  options.seed = seed;
  return core::make_hevc_benchmark(options);
}

/// The +1 ascent that repairs an answer: min+1 phase 2 over the word
/// lengths, or over the budgeting levels (a higher level is less noise).
dse::MinPlusOneOptions ascent_options(const core::ApplicationBenchmark& bench) {
  if (bench.optimizer == core::OptimizerKind::kMinPlusOne)
    return bench.min_plus_one;
  dse::MinPlusOneOptions options;
  options.lambda_min = bench.sensitivity.lambda_min;
  options.nv = bench.sensitivity.nv;
  options.w_max = bench.sensitivity.level_max;
  // Phase 2 only raises values from its start; w_min bounds phase 1 alone,
  // so the default (the least min+1 accepts) serves levels down to 0 too.
  return options;
}

/// Whether the instance has a solution at all: λ at the all-maximum
/// configuration meets λ_min. A few random SqueezeNet networks miss it
/// even with near-silent noise; they are not benchmark inputs.
bool solvable(const core::ApplicationBenchmark& bench) {
  const dse::MinPlusOneOptions ascent = ascent_options(bench);
  return bench.simulate(dse::Config(ascent.nv, ascent.w_max)) >=
         ascent.lambda_min;
}

/// The instance's tolerance band: 0 when λ with every variable at half
/// its maximum misses λ_min, 1 when it meets it, 2 when even the all-zero
/// configuration does. SqueezeNet networks differ most in that: band 0
/// stops early at costly solutions, band 1 descends far in long runs, and
/// band 2 descends all the way to cost 0. Fixing the share of each band
/// keeps the seed from moving the mix, which would move the rate and the
/// mean cost far more than any change to the code.
std::size_t band(const core::ApplicationBenchmark& bench) {
  const dse::MinPlusOneOptions ascent = ascent_options(bench);
  const auto meets = [&](int value) {
    return bench.simulate(dse::Config(ascent.nv, value)) >= ascent.lambda_min;
  };
  if (!meets(ascent.w_max / 2)) return 0;
  return meets(0) ? 2 : 1;
}

template <class F>
double timed(F&& f) {
  const auto start = std::chrono::steady_clock::now();
  f();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

/// One operation: an optimizer run on one instance, then verification.
struct Execution {
  dse::Config answer;  ///< The optimizer's answer.
  std::vector<std::size_t> decisions;
  double lambda = 0.0;  ///< λ of the answer as the optimizer saw it.
  bool finished = false;
  std::size_t steps = 0;  ///< Cursor step calls.
  dse::PolicyStats stats;
  Verified verified;
  double wall_s = 0.0;  ///< Time to the verified solution.

  /// Bit-for-bit identical decisions, answer, λ, policy statistics and
  /// verified solution.
  bool same_result(const Execution& other) const {
    return answer == other.answer && decisions == other.decisions &&
           std::bit_cast<std::uint64_t>(lambda) ==
               std::bit_cast<std::uint64_t>(other.lambda) &&
           finished == other.finished && stats == other.stats &&
           verified == other.verified;
  }
};

/// Step the instance's optimizer cursor to completion; `wrap` runs each
/// step (the traced run opens an optimizer.step span around it).
template <class Wrap>
Execution drive(const core::ApplicationBenchmark& bench,
                const dse::BatchEvaluateFn& evaluate, Wrap&& wrap) {
  Execution e;
  if (bench.optimizer == core::OptimizerKind::kMinPlusOne) {
    dse::MinPlusOneCursor cursor =
        dse::make_min_plus_one_cursor(bench.min_plus_one);
    bool more = true;
    while (more) {
      more = wrap([&] {
        return dse::min_plus_one_step(evaluate, bench.min_plus_one, cursor);
      });
      ++e.steps;
    }
    const dse::MinPlusOneResult result =
        dse::min_plus_one_result(cursor, bench.min_plus_one);
    e.answer = result.w_res;
    e.decisions = result.decisions;
    e.lambda = result.final_lambda;
    e.finished = cursor.finished();
  } else {
    dse::SensitivityCursor cursor =
        dse::make_sensitivity_cursor(bench.sensitivity);
    bool more = true;
    while (more) {
      more = wrap([&] {
        return dse::steepest_descent_step(evaluate, bench.sensitivity, cursor);
      });
      ++e.steps;
    }
    const dse::SensitivityResult result = dse::sensitivity_result(cursor);
    e.answer = result.levels;
    e.decisions = result.decisions;
    e.lambda = result.final_lambda;
    e.finished = cursor.finished();
  }
  return e;
}

Execution run_untraced(const core::ApplicationBenchmark& bench,
                       util::ThreadPool* pool) {
  const util::Stopwatch watch;
  dse::KrigingPolicy policy;
  const dse::BatchEvaluateFn evaluate =
      dse::policy_batch_evaluator(policy, bench.simulate, pool);
  Execution e = drive(bench, evaluate, [](auto&& step) { return step(); });
  e.verified = verify(ascent_options(bench), e.answer, bench.simulate, pool);
  e.wall_s = watch.seconds();
  e.stats = policy.stats();
  return e;
}

/// One evaluate_batch call as the policy saw it, for the replay probes.
struct BatchLog {
  std::size_t store_size = 0;  ///< Store size at batch entry.
  std::vector<dse::Config> batch;
  std::vector<dse::EvalOutcome> outcomes;
};

struct TracedExecution {
  Execution execution;
  std::vector<BatchLog> batches;
  dse::PolicySnapshot snapshot;
};

/// Times the backend layer: a backend.simulate_many span per batch, whose
/// id the simulator wrapper reads as the parent of its sim spans (those run
/// on pool threads, outside the span's own thread).
class TimedBackend final : public dse::BatchSimulator {
 public:
  TimedBackend(dse::BatchSimulator& inner, Tracer& tracer, std::uint64_t op,
               std::atomic<std::uint64_t>& span_id)
      : inner_(inner), tracer_(tracer), op_(op), span_id_(span_id) {}

  std::vector<util::GuardedCall> simulate_many(
      const std::vector<dse::Config>& configs) override {
    const ScopedSpan span(tracer_, "backend.simulate_many", op_,
                          configs.size());
    span_id_.store(span.id(), std::memory_order_relaxed);
    return inner_.simulate_many(configs);
  }

 private:
  dse::BatchSimulator& inner_;
  Tracer& tracer_;
  std::uint64_t op_;
  std::atomic<std::uint64_t>& span_id_;
};

TracedExecution run_traced(const core::ApplicationBenchmark& bench,
                           util::ThreadPool* pool, Tracer& tracer,
                           std::uint64_t op) {
  TracedExecution t;
  const util::Stopwatch watch;
  {
    const ScopedSpan run_span(tracer, "run", op);
    dse::KrigingPolicy policy;
    std::atomic<std::uint64_t> backend_span{0};
    const dse::SimulatorFn simulate = [&](const dse::Config& config) {
      const ScopedSpan span(tracer, "sim", op, 0,
                            backend_span.load(std::memory_order_relaxed));
      return bench.simulate(config);
    };
    dse::PooledBatchSimulator pooled(simulate, policy.options().retry, pool);
    TimedBackend backend(pooled, tracer, op, backend_span);
    const dse::BatchEvaluateFn evaluate =
        [&](const std::vector<dse::Config>& batch) {
          BatchLog log;
          log.store_size = policy.store().size();
          {
            const ScopedSpan span(tracer, "policy.evaluate_batch", op,
                                  batch.size());
            log.outcomes = policy.evaluate_batch(batch, backend);
          }
          std::vector<double> values;
          values.reserve(log.outcomes.size());
          for (const dse::EvalOutcome& o : log.outcomes)
            values.push_back(o.value);
          log.batch = batch;
          t.batches.push_back(std::move(log));
          return values;
        };
    t.execution = drive(bench, evaluate, [&](auto&& step) {
      const ScopedSpan span(tracer, "optimizer.step", op);
      return step();
    });
    {
      const ScopedSpan span(tracer, "verify", op);
      const dse::SimulatorFn simulate_exact = [&, parent = span.id()](
                                                  const dse::Config& config) {
        const ScopedSpan sim(tracer, "sim", op, 0, parent);
        return bench.simulate(config);
      };
      t.execution.verified = verify(ascent_options(bench), t.execution.answer,
                                    simulate_exact, pool);
    }
    t.execution.stats = policy.stats();
    t.snapshot = policy.snapshot();
  }
  t.execution.wall_s = watch.seconds();
  return t;
}

/// Timings and counts of the replay probes, summed over runs.
struct Probes {
  std::vector<double> query_us;
  std::vector<double> fit_ms;
  std::vector<double> solve_us;
  double query_s = 0.0;
  double add_s = 0.0;
  double extend_s = 0.0;
  double fit_s = 0.0;
  double solve_s = 0.0;
  std::size_t fits = 0;

  double total_s() const {
    return query_s + add_s + extend_s + fit_s + solve_s;
  }
};

/// Replays one traced run's policy work layer by layer, outside its wall
/// time: rebuilds the store in insertion order from the snapshot, re-runs
/// every recorded variogram fit at its store size, repeats each batch's
/// neighbour searches at the batch's entry size, and re-solves every
/// interpolation on a fresh ordinary-kriging system. Each replayed result
/// must equal what the run produced. Returns false on any mismatch.
bool replay_probes(const TracedExecution& run, Probes& probes, Report& report,
                   const std::string& where) {
  const dse::PolicyOptions options;  // The runs use the paper defaults.
  const dse::PolicySnapshot& snap = run.snapshot;
  dse::SimulationStore store;
  kriging::EmpiricalVariogram variogram(kriging::l1_distance, 1.0);
  std::unique_ptr<kriging::VariogramModel> model;
  std::size_t next_add = 0;
  std::size_t next_fit = 0;
  std::size_t fits = 0;
  bool ok = true;

  // The policy's refit: fold the points added since the last fit into the
  // empirical variogram, then fit every model family.
  const auto replay_fit = [&] {
    const std::size_t n = store.size();
    if (n < 2) return;
    probes.extend_s += timed([&] {
      std::vector<std::vector<double>> points;
      std::vector<double> values;
      for (std::size_t i = variogram.sample_count(); i < n; ++i) {
        points.push_back(dse::to_real(store.config(i)));
        values.push_back(store.value(i));
      }
      variogram.extend(points, values);
    });
    if (variogram.bins().size() < 2) return;
    kriging::FitResult fit;
    const double s =
        timed([&] { fit = kriging::fit_best(variogram, options.fit); });
    probes.fit_s += s;
    probes.fit_ms.push_back(s * 1e3);
    ++fits;
    model = std::move(fit.model);
  };
  // Grow the store to `size`, replaying each fit at the store size it was
  // recorded at.
  const auto grow_to = [&](std::size_t size) {
    for (;;) {
      while (next_fit < snap.fit_events.size() &&
             snap.fit_events[next_fit] == store.size()) {
        replay_fit();
        ++next_fit;
      }
      if (store.size() >= size || next_add >= snap.configs.size()) return;
      probes.add_s += timed(
          [&] { store.add(snap.configs[next_add], snap.values[next_add]); });
      ++next_add;
    }
  };

  for (const BatchLog& log : run.batches) {
    grow_to(log.store_size);
    if (store.size() != log.store_size) {
      report.fail(where + ": replayed store cannot reach a batch's entry size");
      return false;
    }
    for (std::size_t i = 0; i < log.batch.size(); ++i) {
      const dse::EvalOutcome& outcome = log.outcomes[i];
      if (outcome.cached) continue;
      dse::Neighborhood neighborhood;
      const double q = timed([&] {
        neighborhood = store.neighbors_within(log.batch[i], options.distance);
      });
      probes.query_s += q;
      probes.query_us.push_back(q * 1e6);
      if (neighborhood.count() != outcome.neighbors) {
        report.fail(where + ": replayed neighbour count differs");
        ok = false;
      }
      if (!outcome.interpolated) continue;
      if (!model) {
        report.fail(where + ": interpolation with no replayed model");
        ok = false;
        continue;
      }
      std::optional<kriging::KrigingResult> solved;
      const double k = timed([&] {
        std::vector<std::vector<double>> points;
        std::vector<double> values;
        store.gather(neighborhood, points, values);
        kriging::KrigingSystem system(
            kriging::SystemSpec{kriging::SystemKind::kOrdinary},
            std::move(points), std::move(values), *model,
            kriging::l1_distance);
        solved = system.query(dse::to_real(log.batch[i]));
      });
      probes.solve_s += k;
      probes.solve_us.push_back(k * 1e6);
      // The policy adds its trend term to the estimate; with constant
      // drift that term is 0.0, so add it here too for bit identity.
      if (!solved || std::bit_cast<std::uint64_t>(solved->estimate + 0.0) !=
                         std::bit_cast<std::uint64_t>(outcome.value)) {
        report.fail(where + ": replayed kriging estimate differs");
        ok = false;
      }
    }
  }
  grow_to(snap.configs.size());
  if (fits != snap.stats.refits) {
    report.fail(where + ": replayed fits differ from policy refits");
    ok = false;
  }
  probes.fits += fits;
  return ok;
}

const Execution& execution_of(const Execution& e) { return e; }
const Execution& execution_of(const TracedExecution& t) { return t.execution; }

/// Run `body` as one attempted operation; a throw, an unfinished run or an
/// answer that verification could not make feasible counts as a failed one.
template <class F>
auto attempt(Report& report, const std::string& where, F&& body)
    -> std::optional<decltype(body())> {
  ++report.attempted;
  try {
    auto result = body();
    const Execution& e = execution_of(result);
    if (e.finished && e.verified.feasible) return result;
    report.fail(where + (e.finished ? ": no verified solution meets λ_min"
                                    : ": optimizer did not finish"));
  } catch (const std::exception& e) {
    report.fail(where + ": threw: " + e.what());
  }
  ++report.failed;
  return std::nullopt;
}

/// Problems in the set: as many as one pass fits into kFill of the section
/// (two passes when traced: every problem runs twice, once traced).
std::size_t problem_count(const DseWorkload& w, const Options& options) {
  if (options.smoke) return 1;
  const double passes = options.traced() ? 2.0 : 1.0;
  return std::max<std::size_t>(
      2, static_cast<std::size_t>(std::lround(
             options.seconds * kFill * w.problems_per_second / passes)));
}

/// One run of a DSE workload: the problem set built from the seed, the
/// pool its batches run on, and the first result of every problem.
struct DseRun {
  DseRun(const DseWorkload& w, const Options& o)
      : workload(w), options(o), count(problem_count(w, o)), results(count) {}

  const DseWorkload& workload;
  const Options& options;
  std::size_t count;  ///< Problems in the set.
  std::vector<core::ApplicationBenchmark> problems;
  std::unique_ptr<util::ThreadPool> pool;
  std::vector<std::optional<Execution>> results;
  PolicyTotals totals;
  std::uint64_t steps = 0;

  std::string where(std::size_t i) const {
    return std::string(workload.name) + " problem " + std::to_string(i);
  }
  void keep(std::size_t i, Execution e) {
    totals.add(e.stats);
    steps += e.steps;
    results[i] = std::move(e);
  }
};

/// Set-up: tears down and rebuilds the problems and the pool, and returns
/// the seconds the building took. Problems are the solvable instances in
/// seed order, up to the workload's share of each band when it fixes one.
double build_inputs(DseRun& run) {
  const DseWorkload& w = run.workload;
  run.problems.clear();
  run.pool.reset();
  const util::Stopwatch watch;
  const bool banded = w.band_shares[0] > 0.0;
  std::array<std::size_t, 3> quota{};
  for (std::size_t b = 1; b < quota.size(); ++b)
    quota[b] = static_cast<std::size_t>(
        std::lround(static_cast<double>(run.count) * w.band_shares[b]));
  quota[0] = run.count - quota[1] - quota[2];
  for (std::uint64_t index = 0; run.problems.size() < run.count; ++index) {
    core::ApplicationBenchmark bench =
        w.make(derive_seed(run.options.seed, w.stream, index));
    if (!solvable(bench)) continue;
    if (banded) {
      const std::size_t b = band(bench);
      if (quota[b] == 0) continue;
      --quota[b];
    }
    run.problems.push_back(std::move(bench));
  }
  if (w.pool_workers > 0)
    run.pool = std::make_unique<util::ThreadPool>(w.pool_workers);
  return watch.seconds();
}

void warm_up(DseRun& run) {
  const util::Stopwatch warm;
  for (std::size_t i = 0; warm.seconds() < kWarmupSeconds;
       i = (i + 1) % run.count)
    (void)run_untraced(run.problems[i], run.pool.get());
}

/// Problems solved over the sum of each problem's median time to its
/// verified solution, so a problem repeated to fill the section carries no
/// extra weight.
double solutions_per_s(const std::vector<std::vector<double>>& times) {
  double total_s = 0.0;
  std::size_t solved = 0;
  for (const std::vector<double>& t : times) {
    if (t.empty()) continue;  // Never succeeded.
    total_s += util::median(t);
    ++solved;
  }
  return total_s > 0.0 ? static_cast<double>(solved) / total_s : 0.0;
}

/// One pass over every problem, then repeats until the timed section is
/// full; every repeat must reproduce its problem's first run exactly.
/// Returns verified solutions per second at the reference host speed.
double measure_untraced(DseRun& run, Section& section, Report& report) {
  const std::size_t count = run.count;
  struct Timing {
    std::size_t problem;
    double start;  ///< Section::now() stamp.
    double wall_s;
  };
  std::vector<Timing> timings;
  section.start();
  for (std::size_t k = 0; k < count || !section.full(); ++k) {
    section.between();
    const std::size_t i = k % count;
    const double start = section.now();
    auto e = attempt(report, run.where(i), [&] {
      return run_untraced(run.problems[i], run.pool.get());
    });
    if (!e) continue;
    timings.push_back({i, start, e->wall_s});
    if (k < count) {
      run.keep(i, std::move(*e));
    } else if (run.results[i] && !run.results[i]->same_result(*e)) {
      ++report.failed;
      report.fail(run.where(i) + ": repeated run diverged from its first run");
    }
  }
  section.finish();

  std::vector<std::vector<double>> raw(count);
  std::vector<std::vector<double>> calibrated(count);
  for (const Timing& t : timings) {
    raw[t.problem].push_back(t.wall_s);
    calibrated[t.problem].push_back(section.calibrated(t.start, t.wall_s));
  }
  std::vector<double> first;
  for (const std::vector<double>& t : raw)
    if (!t.empty()) first.push_back(t.front());
  report.note("solve_p50_ms", quantile_or_zero(first, 0.5) * 1e3, "ms");
  report.note("raw_solutions_per_s", solutions_per_s(raw), "1/s");
  report.note("host_speed", section.host_speed(), "ratio");
  report.note("executions", static_cast<double>(report.attempted), "count");
  return solutions_per_s(calibrated);
}

/// Paired runs of every problem, untraced and traced in alternating order
/// (tracing must not change a single decision), each traced run followed
/// by its replay probes.
Layers measure_traced(DseRun& run, Report& report) {
  Tracer tracer;
  Probes probes;
  std::vector<double> slowdowns;  ///< Traced wall / untraced wall.
  for (std::size_t i = 0; i < run.problems.size(); ++i) {
    const core::ApplicationBenchmark& bench = run.problems[i];
    std::optional<Execution> plain;
    std::optional<TracedExecution> traced;
    const auto run_plain = [&] {
      plain = attempt(report, run.where(i),
                      [&] { return run_untraced(bench, run.pool.get()); });
    };
    const auto run_spans = [&] {
      traced = attempt(report, run.where(i) + " traced", [&] {
        return run_traced(bench, run.pool.get(), tracer, i + 1);
      });
    };
    if (i % 2 == 0) {
      run_plain();
      run_spans();
    } else {
      run_spans();
      run_plain();
    }
    if (!plain || !traced) continue;
    if (!plain->same_result(traced->execution)) {
      ++report.failed;
      report.fail(run.where(i) + ": traced run diverged from untraced run");
      continue;
    }
    slowdowns.push_back(traced->execution.wall_s / std::max(plain->wall_s, 1e-9));
    if (!replay_probes(*traced, probes, report, run.where(i)))
      ++report.failed;
    run.keep(i, std::move(traced->execution));
  }

  Layers layers;
  const SpanTree tree =
      finish_trace(tracer, run.options.trace_path, report, layers);
  layers.backend_batches =
      static_cast<double>(tree.count("backend.simulate_many"));
  layers.backend_configs =
      static_cast<double>(tree.items("backend.simulate_many"));
  layers.backend_wall_s = tree.total_seconds("backend.simulate_many");
  layers.backend_self_s = tree.self_seconds("backend.simulate_many");
  // Only the simulations the backend dispatched: verification simulates
  // outside it.
  const double executors = static_cast<double>(run.workload.pool_workers + 1);
  layers.backend_parallel_eff =
      layers.backend_wall_s > 0.0
          ? tree.child_seconds("backend.simulate_many", "sim") /
                (layers.backend_wall_s * executors)
          : 0.0;
  run.totals.fill(layers);
  layers.policy_self_s = tree.self_seconds("policy.evaluate_batch");
  layers.policy_self_us_per_eval =
      run.totals.total == 0 ? 0.0
                            : layers.policy_self_s * 1e6 /
                                  static_cast<double>(run.totals.total);
  layers.policy_probe_coverage_pct =
      layers.policy_self_s > 0.0
          ? 100.0 * probes.total_s() / layers.policy_self_s
          : 0.0;
  layers.optimizer_steps = static_cast<double>(tree.count("optimizer.step"));
  layers.optimizer_self_s = tree.self_seconds("optimizer.step");
  layers.store_queries = static_cast<double>(probes.query_us.size());
  layers.store_query_p50_us = quantile_or_zero(probes.query_us, 0.5);
  layers.store_query_total_s = probes.query_s;
  layers.store_add_total_s = probes.add_s;
  layers.variogram_fits = static_cast<double>(probes.fits);
  layers.variogram_extend_total_s = probes.extend_s;
  layers.variogram_fit_total_s = probes.fit_s;
  layers.variogram_fit_p50_ms = quantile_or_zero(probes.fit_ms, 0.5);
  layers.kriging_solves = static_cast<double>(probes.solve_us.size());
  layers.kriging_solve_p50_us = quantile_or_zero(probes.solve_us, 0.5);
  layers.kriging_solve_total_s = probes.solve_s;
  layers.trace_overhead_pct =
      slowdowns.empty() ? 0.0 : 100.0 * (util::median(slowdowns) - 1.0);
  report.count("probe_estimates_checked", probes.solve_us.size());
  report.count("probe_neighbor_queries_checked", probes.query_us.size());
  return layers;
}

Report run_dse(const DseWorkload& workload, const Options& options) {
  Report report;
  DseRun run(workload, options);
  Section section(
      options,
      [&] { return probe_host(run.pool.get(), workload.pool_workers + 1); },
      [&] { return build_inputs(run); });
  if (!options.smoke) warm_up(run);
  std::optional<Layers> layers;
  double solutions_per_s = 0.0;
  if (options.traced())
    layers = measure_traced(run, report);
  else
    solutions_per_s = measure_untraced(run, section, report);

  // The verified solutions: their cost, and how many answers needed repair
  // (the kriging method's known weakness near λ_min).
  std::uint64_t cost = 0;
  std::uint64_t repaired = 0;
  std::uint64_t solved = 0;
  for (const std::optional<Execution>& e : run.results) {
    if (!e) continue;
    ++solved;
    const dse::Config& c = e->verified.config;
    cost += static_cast<std::uint64_t>(std::accumulate(c.begin(), c.end(), 0));
    if (e->verified.repaired) ++repaired;
  }
  const double per_solution =
      solved == 0 ? 0.0 : 1.0 / static_cast<double>(solved);
  const double repaired_pct =
      100.0 * static_cast<double>(repaired) * per_solution;
  if (layers) {
    layers->verify_repaired_pct = repaired_pct;
    layers->emit(report);
  } else {
    EndToEnd e2e;
    e2e.solutions_per_s = solutions_per_s;
    e2e.solution_cost = static_cast<double>(cost) * per_solution;
    e2e.setup_s = section.setup_s();
    e2e.peak_rss_mb = peak_rss_mb();
    e2e.emit(report);
  }
  report.note("repaired_pct", repaired_pct, "%");
  report.count("problems", run.results.size());
  report.count("steps", run.steps);
  report.count("evaluations", run.totals.total);
  report.count("simulated", run.totals.simulated);
  report.count("interpolated", run.totals.interpolated);
  report.count("refits", run.totals.refits);
  report.count("repaired", repaired);
  report.count("solution_cost", cost);
  return report;
}

}  // namespace

Report run_cnn_budget(const Options& options) {
  // Band shares as the generator yields them (1000 networks: 53 %, 30 %,
  // 17 %).
  return run_dse({"cnn_budget", 1, 7.0, 3, &make_cnn, {0.53, 0.30, 0.17}},
                 options);
}

Report run_hevc_wordlength(const Options& options) {
  return run_dse({"hevc_wordlength", 2, 3.6, 3, &make_hevc, {}}, options);
}

Report run_kriging_bound(const Options& options) {
  return run_dse({"kriging_bound", 3, 12.5, 0, &make_hevc_block, {}}, options);
}

}  // namespace ace::e2e
