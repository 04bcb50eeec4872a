// Portable SIMD kernels for the columnar (SoA) hot paths.
//
// The paper's 10⁻⁶-second interpolation claim lives or dies in three inner
// loops: L1 distance scans over the simulated-configuration store, the
// γ-vector / variogram-block assembly of the kriging system, and the
// bordered solves. All three stream long arrays with a tiny per-element
// kernel, which makes them memory-bandwidth problems — the HPC discipline
// (blocked scans over contiguous columns, STREAM-style GB/s accounting in
// bench/micro_kriging) applies directly.
//
// This header exposes *L1 distance kernels over columns*, not a general
// vector-register abstraction: every consumer (SimulationStore scans,
// EmpiricalVariogram pairing, KrigingSystem assembly) iterates points in
// lanes and dimensions in sequence, so the whole contract fits in two
// functions — i32 columns for the store, f64 columns for the kriging
// layer. Each kernel has
//   * a dispatching entry point (`l1_distances_i32`, ...) that uses the
//     AVX2 backend when it was compiled in (configure-time `ACE_SIMD`
//     option) *and* the runtime toggle is on;
//   * a `_scalar` reference twin, compiled in its own TU with
//     auto-vectorization disabled, which is both the portable fallback and
//     the honest "scalar" baseline of the roofline bench.
//
// Numerical contract (see DESIGN.md §10): the vector kernels are
// *bit-identical* to their scalar twins, not merely close —
//   * i32 L1: pure integer arithmetic, same wrap-around semantics;
//   * f64 L1: per-lane accumulation walks dimensions in the same order as
//     the scalar loop, so every rounding step matches.
// Consumers therefore produce identical neighbourhoods and identical
// assembled systems whether the toggle is on or off; the toggle exists for
// A/B benchmarking (bench/micro_kriging, bench/decision_divergence), not
// because results drift.
//
// Thread-safety: kernels are pure functions of their arguments. The
// enable toggle is a relaxed atomic read per call — flip it only from
// single-threaded bench/test setup code, not mid-scan.
#pragma once

#include <cstddef>

namespace ace::util::simd {

/// True when the AVX2 backend was compiled in (CMake `ACE_SIMD`).
bool compiled_avx2();

/// Name of the compiled backend: "avx2" or "scalar".
const char* backend();

/// Vector kernels are used when compiled in AND this toggle is on (the
/// default). The toggle exists for in-binary scalar-vs-SIMD comparisons.
bool enabled();
void set_enabled(bool on);

// --- dispatching kernels --------------------------------------------------
// `cols` holds `dim` pointers, one per coordinate; cols[d][i] is the d-th
// coordinate of point i. All kernels write `count` outputs.

/// out[i] = Σ_d |cols[d][i] − query[d]|  (int arithmetic, wraps like the
/// scalar loop on overflow).
void l1_distances_i32(const int* const* cols, std::size_t dim,
                      const int* query, std::size_t count, int* out);

/// out[i] = Σ_d |cols[d][i] − query[d]|  over double columns.
void l1_distances_f64(const double* const* cols, std::size_t dim,
                      const double* query, std::size_t count, double* out);

// --- scalar reference twins ----------------------------------------------
// Compiled in simd_scalar.cpp with auto-vectorization off: the portable
// fallback and the denominator of every scalar-vs-SIMD bench ratio.

void l1_distances_i32_scalar(const int* const* cols, std::size_t dim,
                             const int* query, std::size_t count, int* out);
void l1_distances_f64_scalar(const double* const* cols, std::size_t dim,
                             const double* query, std::size_t count,
                             double* out);

}  // namespace ace::util::simd
