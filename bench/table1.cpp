// Table I driver: one binary for every kernel's row group. `--kernel=K`
// picks the benchmark; the gate/option flags tune the replay policy. The
// driver runs the exact optimizer once, replays at d = 2..5 and prints the
// paper-layout rows plus context.
//
//   table1 --kernel=fir|iir|fft|hevc|squeezenet|dct|approx_fir|
//                   iir_sensitivity
//          [--gate=neighbour-count|variance|loo-calibrated|
//                  sequential-design]
//          [--nn-min=K] [--variance-gate=X]
//
// Counts are unsigned decimal integers and values are plain decimals; a
// flag must be consumed whole. Every option value is then checked by the
// KrigingPolicy constructor itself. A missing or unknown kernel, an
// unknown flag or a bad value prints usage and exits 2.
#include <charconv>
#include <cstring>
#include <iostream>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <system_error>
#include <thread>

#include "core/benchmarks.hpp"
#include "core/table1.hpp"
#include "dse/acquisition.hpp"
#include "dse/config.hpp"
#include "dse/kriging_policy.hpp"
#include "util/stopwatch.hpp"
#include "util/thread_pool.hpp"

namespace {

namespace core = ace::core;
namespace dse = ace::dse;

struct Kernel {
  const char* name;
  core::ApplicationBenchmark (*make)();
};

const Kernel kKernels[] = {
    // Table I, FIR row group (64-tap FIR, Nv = 2, noise power). Nmax = 20
    // reproduces the paper's trajectory density best (the paper does not
    // state its Nmax; see EXPERIMENTS.md).
    {"fir",
     [] {
       core::SignalBenchOptions opt;
       opt.w_max = 20;
       return core::make_fir_benchmark(opt);
     }},
    // Table I, IIR row group (8th-order IIR, Nv = 5, noise power), with
    // the same Nmax = 20.
    {"iir",
     [] {
       core::SignalBenchOptions opt;
       opt.w_max = 20;
       return core::make_iir_benchmark(opt);
     }},
    // Table I, FFT row group (64-point FFT, Nv = 10, noise power).
    {"fft", [] { return core::make_fft_benchmark(); }},
    // Table I, HEVC row group (motion compensation, Nv = 23, noise power,
    // λm = −50 dB as in the paper).
    {"hevc", [] { return core::make_hevc_benchmark(); }},
    // Table I, SqueezeNet row group (error-sensitivity analysis, Nv = 10,
    // classification-agreement metric, relative ε).
    {"squeezenet", [] { return core::make_squeezenet_benchmark(); }},
    // Extension: 8×8 2-D DCT word-length refinement, Nv = 6 — between the
    // paper's IIR (Nv = 5) and FFT (Nv = 10) rows.
    {"dct", [] { return core::make_dct_benchmark(); }},
    // Extension: approximate-operator FIR (Nv = 4). The DSE variables are
    // the precision levels of truncated multipliers and lower-OR adders
    // rather than word lengths — the same kriging policy serves this
    // lattice unchanged.
    {"approx_fir", [] { return core::make_approx_fir_benchmark(); }},
    // Extension: error-sensitivity analysis (the paper's second problem
    // type) on the IIR cascade, Nv = 5, with the noise-power metric.
    {"iir_sensitivity",
     [] { return core::make_iir_sensitivity_benchmark(); }},
};

int usage(const std::string& problem) {
  std::cerr << problem
            << "\nusage: table1 --kernel=fir|iir|fft|hevc|squeezenet|dct|"
               "approx_fir|iir_sensitivity\n"
               "              [--gate=neighbour-count|variance|"
               "loo-calibrated|sequential-design] [--nn-min=K]\n"
               "              [--variance-gate=X]\n";
  return 2;
}

/// Whole-string parse: no sign on counts, no leading blanks, no trailing
/// characters, no overflow.
template <class T>
bool parse_whole(std::string_view text, T& out) {
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, out);
  return ec == std::errc() && ptr == end;
}

/// Parse one `--flag=value` option into `options` (or `kernel`). Returns
/// false on an unknown flag or a value that does not parse.
bool parse_flag(std::string_view arg, const Kernel*& kernel,
                dse::PolicyOptions& options) {
  const auto value = [&](const char* prefix, std::string_view& out) {
    if (arg.rfind(prefix, 0) != 0) return false;
    out = arg.substr(std::strlen(prefix));
    return true;
  };
  std::string_view v;
  if (value("--kernel=", v)) {
    for (const Kernel& k : kKernels)
      if (v == k.name) {
        kernel = &k;
        return true;
      }
    return false;
  }
  if (value("--gate=", v)) {
    for (const dse::GateKind kind :
         {dse::GateKind::kNeighbourCount, dse::GateKind::kVariance,
          dse::GateKind::kLooCalibrated, dse::GateKind::kSequentialDesign}) {
      if (v == dse::gate_name(kind)) {
        options.gate = kind;
        return true;
      }
    }
    return false;
  }
  if (value("--nn-min=", v)) return parse_whole(v, options.nn_min);
  if (value("--variance-gate=", v))
    return parse_whole(v, options.variance_gate);
  return false;
}

/// The sequential-design gate protects a decision threshold; default it to
/// the benchmark's own accuracy constraint unless the caller pinned one.
void default_gate_lambda_min(const core::ApplicationBenchmark& bench,
                             dse::PolicyOptions& options) {
  if (options.gate == dse::GateKind::kSequentialDesign &&
      !options.gate_lambda_min) {
    options.gate_lambda_min = bench.lambda_min();
  }
}

}  // namespace

int main(int argc, char** argv) {
  const Kernel* kernel = nullptr;
  dse::PolicyOptions options;
  for (int i = 1; i < argc; ++i)
    if (!parse_flag(argv[i], kernel, options))
      return usage(std::string("bad flag: ") + argv[i]);
  if (!kernel) return usage("missing --kernel");

  const core::ApplicationBenchmark bench = kernel->make();
  default_gate_lambda_min(bench, options);
  try {
    const dse::KrigingPolicy validate(options);
  } catch (const std::invalid_argument& e) {
    return usage(std::string("bad option: ") + e.what());
  }

  std::cout << "=== Table I (" << bench.name << ", Nv = " << bench.nv
            << ", gate = " << dse::make_gate(options)->name() << ") ===\n";
  // The exact run's simulations split their parts over the other hardware
  // threads (run_table1); one hardware thread runs them inline.
  std::unique_ptr<ace::util::ThreadPool> pool;
  if (const unsigned threads = std::thread::hardware_concurrency(); threads > 1)
    pool = std::make_unique<ace::util::ThreadPool>(threads - 1);
  ace::util::Stopwatch watch;
  const auto result =
      core::run_table1(bench, {2, 3, 4, 5}, options, pool.get());
  std::cout << "exact optimizer: " << result.trajectory.size()
            << " distinct configurations simulated, solution "
            << dse::to_string(result.exact_solution)
            << ", lambda = " << result.exact_lambda << "\n\n";
  core::print_table1(std::cout, result);
  std::cout << "\ntotal wall time: " << watch.seconds() << " s\n";
  return 0;
}
