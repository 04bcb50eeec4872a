// The paper's five evaluation benchmarks, packaged as self-contained
// (name, lattice, metric, simulator, optimizer) bundles. Each simulator is
// deterministic: identical configurations always yield identical λ.
// HEVC (one part per motion-compensation job) and SqueezeNet (one part per
// image) split each call across util::ThreadPool::current(), the pool
// running the call, and reduce the parts in index order (the SimulatorFn
// rule), so λ is the same bits on any pool and inline.
//
// Metric conventions (Sec. IV): for the four word-length benchmarks
// λ = −P with P the output noise power in dB (higher λ = more accurate);
// for SqueezeNet λ = p_cl, the classification-agreement probability.
#pragma once

#include <cstdint>
#include <string>

#include "dse/config.hpp"
#include "dse/kriging_policy.hpp"
#include "dse/min_plus_one.hpp"
#include "dse/optimizer.hpp"
#include "dse/steepest_descent.hpp"
#include "dse/trajectory.hpp"

namespace ace::core {

/// Which optimizer drives the benchmark's DSE.
using OptimizerKind = dse::OptimizerKind;

/// A ready-to-run evaluation benchmark.
struct ApplicationBenchmark {
  std::string name;
  std::size_t nv = 0;
  dse::MetricKind metric = dse::MetricKind::kAccuracyDb;
  OptimizerKind optimizer = OptimizerKind::kMinPlusOne;
  dse::SimulatorFn simulate;
  dse::MinPlusOneOptions min_plus_one;    ///< Used when kMinPlusOne.
  dse::SensitivityOptions sensitivity;    ///< Used when kSteepestDescent.

  /// The quality floor λ_min of the benchmark's optimizer.
  double lambda_min() const;

  /// The benchmark's optimizer run to completion against `evaluate`.
  dse::OptimizerCursor run_optimizer(
      const dse::BatchEvaluateFn& evaluate) const;
};

/// Shared sizing for the signal-kernel benchmarks.
struct SignalBenchOptions {
  std::size_t samples = 512;     ///< Input length (FFT: must be multiple of 64).
  std::uint64_t seed = 42;
  double lambda_min_db = 50.0;   ///< Constraint: noise power <= −50 dB.
  int w_max = 16;
  int w_min = 2;
};

/// 64-tap FIR, Nv = 2 (Table I row 1, Fig. 1).
ApplicationBenchmark make_fir_benchmark(const SignalBenchOptions& opt = {});

/// 8th-order IIR (4 biquads), Nv = 5 (Table I row 2).
ApplicationBenchmark make_iir_benchmark(const SignalBenchOptions& opt = {});

/// 64-point FFT, Nv = 10 (Table I row 3).
ApplicationBenchmark make_fft_benchmark(const SignalBenchOptions& opt = {});

struct HevcBenchOptions {
  std::size_t jobs = 24;         ///< 8×8 motion-compensation blocks.
  std::uint64_t seed = 7;
  double lambda_min_db = 50.0;
  int w_max = 16;
  int w_min = 2;
};

/// HEVC luma motion compensation, Nv = 23 (Table I row 4).
ApplicationBenchmark make_hevc_benchmark(const HevcBenchOptions& opt = {});

struct CnnBenchOptions {
  std::size_t images = 250;      ///< Paper: 1000; scaled for laptop runtime.
  std::size_t classes = 10;
  std::uint64_t seed = 1234;
  double pcl_min = 0.90;         ///< Targeted classification agreement.
  int level_max = 18;            ///< Start level (power 2^-18·base: near-silent).
  double base_power = 1.0;       ///< Power at level 0.
};

/// SqueezeNet-like error-sensitivity analysis, Nv = 10 (Table I row 5).
ApplicationBenchmark make_squeezenet_benchmark(const CnnBenchOptions& opt = {});

struct IirSensitivityOptions {
  std::size_t samples = 512;
  std::uint64_t seed = 55;
  double lambda_min_db = 45.0;  ///< Injected noise must stay <= −45 dB.
  int level_max = 20;           ///< Start level (power 2^-20: near-silent).
};

/// Error-sensitivity analysis on the IIR cascade (extension): an error
/// source at the output of each biquad section (Nv = 4 + 1 input source),
/// budgeted by steepest descent — the paper's second problem type applied
/// to a classical signal kernel. Feedback filters the injected noise, so
/// per-source tolerances differ by section depth.
ApplicationBenchmark make_iir_sensitivity_benchmark(
    const IirSensitivityOptions& opt = {});

struct ApproxFirBenchOptions {
  std::size_t samples = 512;
  std::size_t taps = 16;
  std::uint64_t seed = 77;
  double lambda_min_db = 40.0;
  int v_min = 2;               ///< Lattice floor (degree = v_max − v).
  int v_max = 14;              ///< Exact operators at v = v_max.
};

/// Approximate-operator FIR benchmark (extension; the paper's intro cites
/// inexact adders/multipliers as an approximation source). An integer FIR
/// built from truncated multipliers and lower-OR adders; the four DSE
/// variables are *precision levels* (v_max − degree) of the multiplier and
/// adder in each half of the tap array, so higher v = more exact, exactly
/// like a word length. Nv = 4.
ApplicationBenchmark make_approx_fir_benchmark(
    const ApproxFirBenchOptions& opt = {});

struct DctBenchOptions {
  std::size_t blocks = 48;       ///< 8×8 pixel blocks.
  std::uint64_t seed = 99;
  double lambda_min_db = 50.0;
  int w_max = 16;
  int w_min = 2;
};

/// 8×8 2-D DCT word-length benchmark, Nv = 6 — an extension beyond the
/// paper's evaluation set (see DESIGN.md).
ApplicationBenchmark make_dct_benchmark(const DctBenchOptions& opt = {});

}  // namespace ace::core
