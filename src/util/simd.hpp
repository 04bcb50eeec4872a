// Portable SIMD kernel for the columnar (SoA) hot paths of the kriging
// layer.
//
// The paper's 10⁻⁶-second interpolation claim lives or dies in a few inner
// loops: the pairwise distances of the empirical variogram, the γ-vector /
// variogram-block assembly of the kriging system, and the bordered solves.
// The first two stream long arrays with a tiny per-element kernel, which
// makes them memory-bandwidth problems — the HPC discipline (contiguous
// columns, STREAM-style GB/s accounting in bench/micro_kriging) applies
// directly.
//
// This header exposes *an L1 distance kernel over columns*, not a general
// vector-register abstraction: both consumers (EmpiricalVariogram pairing,
// KrigingSystem assembly) iterate points in lanes and dimensions in
// sequence over f64 columns, so the whole contract fits in one function.
// The kernel has
//   * a dispatching entry point (`l1_distances_f64`) that uses the AVX2
//     backend when it was compiled in (configure-time `ACE_SIMD` option)
//     *and* the runtime toggle is on;
//   * a `_scalar` reference twin, compiled in its own TU with
//     auto-vectorization disabled, which is both the portable fallback and
//     the honest "scalar" baseline of the roofline bench.
//
// Numerical contract (see DESIGN.md §10): the vector kernel is
// *bit-identical* to its scalar twin, not merely close — per-lane
// accumulation walks dimensions in the same order as the scalar loop, so
// every rounding step matches. Consumers therefore produce identical
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

/// Name of the compiled backend: "avx2" or "scalar".
const char* backend();

/// Vector kernels are used when compiled in AND this toggle is on (the
/// default). The toggle exists for in-binary scalar-vs-SIMD comparisons.
bool enabled();
void set_enabled(bool on);

// --- dispatching kernel ---------------------------------------------------
// `cols` holds `dim` pointers, one per coordinate; cols[d][i] is the d-th
// coordinate of point i. The kernel writes `count` outputs.

/// out[i] = Σ_d |cols[d][i] − query[d]|  over double columns.
void l1_distances_f64(const double* const* cols, std::size_t dim,
                      const double* query, std::size_t count, double* out);

// --- scalar reference twin -----------------------------------------------
// Compiled in simd_scalar.cpp with auto-vectorization off: the portable
// fallback and the denominator of every scalar-vs-SIMD bench ratio.

void l1_distances_f64_scalar(const double* const* cols, std::size_t dim,
                             const double* query, std::size_t count,
                             double* out);

}  // namespace ace::util::simd
