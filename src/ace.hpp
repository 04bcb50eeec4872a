// Umbrella header: the full public API of the ace-kriging library.
//
// Most users only need dse/scheduler.hpp (a KrigingPolicy bound into the
// optimizers' one evaluator type, BatchEvaluateFn, by policy_evaluator or
// policy_batch_evaluator) plus the optimizer's header; this header exists
// for exploratory use and for binding generators.
#pragma once

// Utilities.
#include "util/csv.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/stopwatch.hpp"
#include "util/table.hpp"

// Linear algebra.
#include "linalg/lu.hpp"

// Fixed-point arithmetic.
#include "fixedpoint/format.hpp"
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
#include "video/frame.hpp"
#include "video/hevc_mc.hpp"

// Design-space exploration.
#include "dse/config.hpp"
#include "dse/kriging_policy.hpp"
#include "dse/min_plus_one.hpp"
#include "dse/optimizer.hpp"
#include "dse/scheduler.hpp"
#include "dse/sim_store.hpp"
#include "dse/steepest_descent.hpp"
#include "dse/trajectory.hpp"
#include "dse/trajectory_io.hpp"

// Paper benchmarks and the Table I / Sec. IV drivers.
#include "core/benchmarks.hpp"
#include "core/table1.hpp"
