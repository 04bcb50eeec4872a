// Micro-benchmarks (google-benchmark): the per-call costs behind the
// paper's 10⁻⁶-second interpolation claim — the kriging solve as a
// function of support size, neighbour search, variogram fitting, and the
// bit-accurate simulation primitives it replaces.
//
// BM_Simulate/<kernel> times one whole simulator call of a packaged
// benchmark (core::make_*_benchmark) at a mid-lattice configuration: the
// per-simulation cost the kriging policy saves each time it interpolates.
// BM_SimulatePooled/<kernel> times the same call run as a one-task batch
// on a 3-worker pool, as the batch backend runs a lone simulation: HEVC
// and SqueezeNet split its parts across the idle workers (wall time).
//
// BM_GammaAssemblyScan and BM_VariogramExtend A/B the SIMD layer
// (DESIGN.md §10): each streams the same data through the scalar reference
// twin (arg0 = 0, a TU compiled with auto-vectorization off) and the
// dispatching kernel (arg0 = 1); the scan reports bytes/s and items/s.
// EXPERIMENTS.md holds the measured table; CI
// regenerates BENCH_micro.json from this binary, whose context records this
// build's type and commit (ace_build_type, ace_git_sha) next to the
// installed libbenchmark's own library_build_type.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <complex>
#include <cstdint>
#include <memory>
#include <span>
#include <unordered_set>
#include <vector>

#include "core/benchmarks.hpp"
#include "dse/sim_store.hpp"
#include "kriging/empirical_variogram.hpp"
#include "kriging/fit.hpp"
#include "kriging/system.hpp"
#include "serve/session.hpp"
#include "signal/fft.hpp"
#include "signal/fir.hpp"
#include "signal/generator.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"
#include "util/stopwatch.hpp"
#include "util/thread_pool.hpp"

namespace {

std::vector<std::vector<double>> lattice_points(ace::util::Rng& rng,
                                                std::size_t n,
                                                std::size_t dim) {
  // Hash-set dedupe: the previous std::find made this setup O(n²) in the
  // number of points, which dominated the large-n benchmark setups.
  std::vector<std::vector<double>> pts;
  pts.reserve(n);
  std::unordered_set<ace::dse::Config, ace::dse::ConfigHash> seen;
  while (pts.size() < n) {
    ace::dse::Config c(dim);
    for (auto& x : c) x = rng.uniform_int(0, 16);
    if (!seen.insert(c).second) continue;
    pts.push_back(ace::dse::to_real(c));
  }
  return pts;
}

void BM_KrigingSolve(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  ace::util::Rng rng(1);
  const auto pts = lattice_points(rng, n, 10);
  const auto vals = rng.uniform_vector(n, -60.0, -20.0);
  const ace::kriging::SphericalVariogram model(0.0, 10.0, 12.0);
  const std::vector<double> query(10, 8.0);
  for (auto _ : state) {
    ace::kriging::KrigingSystem system(
        ace::kriging::SystemSpec{ace::kriging::SystemKind::kOrdinary}, pts,
        vals, model);
    auto r = system.query(query);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_KrigingSolve)->Arg(2)->Arg(4)->Arg(8)->Arg(16)->Arg(32);

// The same systems as BM_KrigingSolve, solved the way KrigingPolicy solves
// them: one warm KrigingSystem workspace, reloaded every iteration with
// the neighbourhood written straight from a SimulationStore's columns and
// solved into a reused result — no allocation per solve.
void BM_KrigingSolveWarm(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  constexpr std::size_t dim = 10;
  ace::util::Rng rng(1);
  const auto pts = lattice_points(rng, n, dim);
  const auto vals = rng.uniform_vector(n, -60.0, -20.0);
  ace::dse::SimulationStore store;
  ace::dse::Neighborhood hood;
  for (std::size_t i = 0; i < n; ++i) {
    store.add(ace::dse::Config(pts[i].begin(), pts[i].end()), vals[i]);
    hood.indices.push_back(i);
  }
  const ace::kriging::SphericalVariogram model(0.0, 10.0, 12.0);
  ace::kriging::KrigingSystem system(
      ace::kriging::SystemSpec{ace::kriging::SystemKind::kOrdinary}, model);
  const std::vector<double> query(dim, 8.0);
  ace::kriging::KrigingResult result;
  for (auto _ : state) {
    system.load(n, dim,
                [&](std::span<double> columns, std::size_t stride,
                    std::span<double> values) {
                  store.gather_columns(hood, columns, stride, values);
                });
    const bool solved = system.query(query, result);
    benchmark::DoNotOptimize(solved);
    benchmark::DoNotOptimize(result.estimate);
  }
}
BENCHMARK(BM_KrigingSolveWarm)->Arg(2)->Arg(4)->Arg(8)->Arg(16)->Arg(32);

void fill_store(ace::dse::SimulationStore& store, std::size_t n,
                std::size_t dim, unsigned seed) {
  ace::util::Rng rng(seed);
  for (std::size_t i = 0; i < n; ++i) {
    ace::dse::Config c(dim);
    for (auto& x : c) x = rng.uniform_int(2, 16);
    store.add(std::move(c), rng.uniform());
  }
}

void BM_NeighborSearch(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  ace::dse::SimulationStore store;
  fill_store(store, n, 10, 2);
  const ace::dse::Config query(10, 9);
  for (auto _ : state) {
    auto hits = store.neighbors_within(query, 3);
    benchmark::DoNotOptimize(hits);
  }
}
BENCHMARK(BM_NeighborSearch)->Arg(64)->Arg(512)->Arg(4096);

// The unindexed linear scan — the baseline that shows what the
// coordinate-sum buckets actually buy.
void BM_NeighborSearchLinear(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  ace::dse::SimulationStore store;
  fill_store(store, n, 10, 2);
  const ace::dse::Config query(10, 9);
  for (auto _ : state) {
    auto hits = store.neighbors_within_linear(query, 3);
    benchmark::DoNotOptimize(hits);
  }
}
BENCHMARK(BM_NeighborSearchLinear)->Arg(64)->Arg(512)->Arg(4096);

// The vectorizable stage of γ-vector/variogram-block assembly: query →
// support distances over f64 SoA columns at Nv = 16 (KrigingSystem's
// distances_to). The γ(d) map on top is identical scalar work on both
// paths, so the distance stage is where the scalar-vs-SIMD ratio lives.
void BM_GammaAssemblyScan(benchmark::State& state) {
  constexpr std::size_t dim = 16;
  const auto n = static_cast<std::size_t>(state.range(1));
  ace::util::Rng rng(7);
  std::vector<std::vector<double>> cols(dim, std::vector<double>(n));
  for (auto& c : cols)
    for (auto& x : c) x = static_cast<double>(rng.uniform_int(0, 16));
  std::vector<const double*> ptrs(dim);
  for (std::size_t d = 0; d < dim; ++d) ptrs[d] = cols[d].data();
  const std::vector<double> query(dim, 8.0);
  std::vector<double> out(n);
  ace::util::simd::set_enabled(state.range(0) != 0);
  for (auto _ : state) {
    ace::util::simd::l1_distances_f64(ptrs.data(), dim, query.data(), n,
                                      out.data());
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  ace::util::simd::set_enabled(true);
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n * dim * sizeof(double)));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
  state.SetLabel(state.range(0) != 0 ? ace::util::simd::backend() : "scalar");
}
BENCHMARK(BM_GammaAssemblyScan)->Args({0, 4096})->Args({1, 4096})
    ->Args({0, 65536})->Args({1, 65536});

void BM_VariogramFit(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  ace::util::Rng rng(3);
  const auto pts = lattice_points(rng, n, 5);
  std::vector<double> vals;
  for (const auto& p : pts) {
    double s = 0.0;
    for (double x : p) s += x;
    vals.push_back(-3.0 * s + rng.normal(0.0, 0.5));
  }
  const ace::kriging::EmpiricalVariogram ev(pts, vals);
  for (auto _ : state) {
    auto fit = ace::kriging::fit_best(ev);
    benchmark::DoNotOptimize(fit);
  }
}
BENCHMARK(BM_VariogramFit)->Arg(16)->Arg(64)->Arg(128);

// One incremental refit's pairing: fold 16 new samples into a variogram
// holding 512, on an Nv = 23 lattice (the kriging_bound policy's shape).
// Each new sample meets every held one in one SoA kernel call; arg0
// toggles the SIMD backend against its scalar twin. The 512-sample
// variogram is rebuilt outside the timed region for every iteration.
void BM_VariogramExtend(benchmark::State& state) {
  constexpr std::size_t dim = 23;
  constexpr std::size_t held = 512;
  constexpr std::size_t fresh = 16;
  ace::util::Rng rng(8);
  const auto pts = lattice_points(rng, held + fresh, dim);
  const auto vals = rng.uniform_vector(held + fresh, -60.0, -20.0);
  const std::vector<std::vector<double>> held_pts(pts.begin(),
                                                  pts.begin() + held);
  const std::vector<double> held_vals(vals.begin(), vals.begin() + held);
  const std::vector<std::vector<double>> new_pts(pts.begin() + held,
                                                 pts.end());
  const std::vector<double> new_vals(vals.begin() + held, vals.end());
  ace::util::simd::set_enabled(state.range(0) != 0);
  for (auto _ : state) {
    state.PauseTiming();
    auto ev = std::make_unique<ace::kriging::EmpiricalVariogram>(held_pts,
                                                                 held_vals);
    state.ResumeTiming();
    ev->extend(new_pts, new_vals);
    benchmark::DoNotOptimize(ev->total_pairs());
    state.PauseTiming();
    ev.reset();
    state.ResumeTiming();
  }
  ace::util::simd::set_enabled(true);
  // Pairs folded per iteration: every new sample against the held ones and
  // the new samples before it.
  constexpr std::size_t pairs = fresh * held + fresh * (fresh - 1) / 2;
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(pairs));
  state.SetLabel(state.range(0) != 0 ? ace::util::simd::backend() : "scalar");
}
BENCHMARK(BM_VariogramExtend)->Arg(0)->Arg(1);

// Park and resume one mid-run service session: a 64-point FFT word-length
// min+1 (the serve_sessions shape) stepped until its store holds 60
// points — 3 fit events under the neighbour-count gate (arg0 = 0), 4
// under the LOO-calibrated gate (arg0 = 1), whose resume replays every
// fit. Each iteration parks it (the policy snapshot becomes the session's
// checkpoint), resumes it (a zero-step request restores the policy), and
// sends one more zero-step request to the now-resident session. park_us,
// resume_us and round_trip_us split the client-side wall time; the last
// is the bare submit/wait hand-off to the service thread, so
// resume_us − round_trip_us is the resume's own work.
void BM_ParkResume(benchmark::State& state) {
  ace::core::SignalBenchOptions signal;
  signal.samples = 64;
  signal.seed = 1;
  signal.lambda_min_db = 43.0;
  const ace::core::ApplicationBenchmark bench =
      ace::core::make_fft_benchmark(signal);
  ace::serve::SessionSpec spec;
  spec.name = bench.name;
  if (state.range(0) != 0)
    spec.policy.gate = ace::dse::GateKind::kLooCalibrated;
  spec.min_plus = bench.min_plus_one;
  spec.simulate = bench.simulate;

  ace::serve::SessionManagerOptions options;
  options.service_threads = 1;
  ace::serve::SessionManager manager(options);
  const ace::serve::SessionId id = manager.create(spec);
  ace::serve::SessionProgress progress = manager.progress(id);
  while (progress.stats.simulated < 60 && !progress.finished) {
    manager.wait(manager.submit(id, 1));
    progress = manager.progress(id);
  }
  if (progress.finished) {
    state.SkipWithError("session finished before reaching 60 points");
    return;
  }

  double park_s = 0.0;
  double resume_s = 0.0;
  double round_trip_s = 0.0;
  for (auto _ : state) {
    ace::util::Stopwatch watch;
    manager.park(id);
    park_s += watch.seconds();
    watch.restart();
    manager.wait(manager.submit(id, 0));
    resume_s += watch.seconds();
    watch.restart();
    manager.wait(manager.submit(id, 0));
    round_trip_s += watch.seconds();
  }
  const double n = static_cast<double>(state.iterations());
  state.counters["park_us"] = park_s * 1e6 / n;
  state.counters["resume_us"] = resume_s * 1e6 / n;
  state.counters["round_trip_us"] = round_trip_s * 1e6 / n;
  state.counters["points"] = static_cast<double>(progress.stats.simulated);
  state.counters["fit_events"] = static_cast<double>(
      progress.stats.refits + progress.stats.failed_refits);
  state.SetLabel(ace::dse::gate_name(spec.policy.gate));
}
BENCHMARK(BM_ParkResume)->Arg(0)->Arg(1)->Unit(benchmark::kMicrosecond);

void BM_FirSimulation(benchmark::State& state) {
  ace::util::Rng rng(4);
  const auto input = ace::signal::noisy_multitone(rng, 512);
  const ace::signal::FirFilter fir(ace::signal::design_lowpass_fir(64, 0.18));
  const ace::signal::QuantizedFirFilter q(fir);
  const std::vector<int> w = {10, 12};
  for (auto _ : state) {
    auto out = q.filter(input, w);
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_FirSimulation);

void BM_QuantizedFft64(benchmark::State& state) {
  ace::util::Rng rng(5);
  std::vector<std::complex<double>> frame(64);
  for (auto& v : frame)
    v = {rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)};
  const ace::signal::QuantizedFft q(64, {frame});
  const std::vector<int> w(10, 12);
  for (auto _ : state) {
    auto out = q.transform(frame, w);
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_QuantizedFft64);

void BM_Simulate(benchmark::State& state,
                 const ace::core::ApplicationBenchmark& bench, int value) {
  const ace::dse::Config config(bench.nv, value);
  for (auto _ : state) {
    double lambda = bench.simulate(config);
    benchmark::DoNotOptimize(lambda);
  }
}

ace::core::ApplicationBenchmark hevc_with_jobs(std::size_t jobs) {
  ace::core::HevcBenchOptions o;
  o.jobs = jobs;
  return ace::core::make_hevc_benchmark(o);
}

ace::core::ApplicationBenchmark squeezenet_with_images(std::size_t images) {
  ace::core::CnnBenchOptions o;
  o.images = images;
  return ace::core::make_squeezenet_benchmark(o);
}

BENCHMARK_CAPTURE(BM_Simulate, fir, ace::core::make_fir_benchmark(), 12)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_Simulate, hevc_block, hevc_with_jobs(1), 12)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_Simulate, hevc, hevc_with_jobs(24), 12)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_Simulate, squeezenet, squeezenet_with_images(10), 8)
    ->Unit(benchmark::kMicrosecond);

void BM_SimulatePooled(benchmark::State& state,
                       const ace::core::ApplicationBenchmark& bench,
                       int value) {
  const ace::dse::Config config(bench.nv, value);
  ace::util::ThreadPool pool(3);
  for (auto _ : state) {
    double lambda = 0.0;
    pool.run_indexed(1, [&](std::size_t) { lambda = bench.simulate(config); });
    benchmark::DoNotOptimize(lambda);
  }
}

BENCHMARK_CAPTURE(BM_SimulatePooled, hevc, hevc_with_jobs(24), 12)
    ->Unit(benchmark::kMicrosecond)
    ->UseRealTime();
BENCHMARK_CAPTURE(BM_SimulatePooled, squeezenet, squeezenet_with_images(10), 8)
    ->Unit(benchmark::kMicrosecond)
    ->UseRealTime();

}  // namespace

int main(int argc, char** argv) {
  benchmark::AddCustomContext("ace_build_type", ACE_BENCH_BUILD_TYPE);
  benchmark::AddCustomContext("ace_git_sha", ACE_BENCH_GIT_SHA);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
