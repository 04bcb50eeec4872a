// Umbrella header: the full public API of the ace-kriging library.
//
// Most users only need core/engine.hpp (the facade) plus dse/config.hpp;
// this header exists for exploratory use and for binding generators.
#pragma once

// Utilities.
#include "util/csv.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/stopwatch.hpp"
#include "util/table.hpp"

// Linear algebra.
#include "linalg/cholesky.hpp"
#include "linalg/lu.hpp"
#include "linalg/matrix.hpp"
#include "linalg/solve.hpp"
#include "linalg/vector.hpp"

// Fixed-point arithmetic.
#include "fixedpoint/format.hpp"
#include "fixedpoint/noise_model.hpp"
#include "fixedpoint/quantizer.hpp"
#include "fixedpoint/range_tracker.hpp"

// Quality / accuracy metrics.
#include "metrics/classification.hpp"
#include "metrics/error_metrics.hpp"
#include "metrics/noise_power.hpp"

// Kriging.
#include "kriging/empirical_variogram.hpp"
#include "kriging/fit.hpp"
#include "kriging/system.hpp"
#include "kriging/variogram_model.hpp"

// Approximate arithmetic operators.
#include "approx/adders.hpp"
#include "approx/characterize.hpp"
#include "approx/multipliers.hpp"

// Application substrates.
#include "nn/dataset.hpp"
#include "nn/injection.hpp"
#include "nn/layers.hpp"
#include "nn/squeezenet.hpp"
#include "nn/tensor.hpp"
#include "signal/biquad.hpp"
#include "signal/dct.hpp"
#include "signal/fft.hpp"
#include "signal/fir.hpp"
#include "signal/generator.hpp"
#include "signal/iir.hpp"
#include "signal/noise_analysis.hpp"
#include "video/frame.hpp"
#include "video/hevc_mc.hpp"
#include "video/hevc_mc_int.hpp"

// Design-space exploration.
#include "dse/adaptive_simulation.hpp"
#include "dse/annealing.hpp"
#include "dse/config.hpp"
#include "dse/cost.hpp"
#include "dse/interp1d.hpp"
#include "dse/kriging_policy.hpp"
#include "dse/min_plus_one.hpp"
#include "dse/scheduler.hpp"
#include "dse/sim_store.hpp"
#include "dse/steepest_descent.hpp"
#include "dse/trajectory.hpp"
#include "dse/trajectory_io.hpp"

// High-level facade and benchmarks.
#include "core/benchmarks.hpp"
#include "core/engine.hpp"
#include "core/table1.hpp"
