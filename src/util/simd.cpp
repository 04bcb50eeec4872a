// Dispatching entry point plus the AVX2 backend. This TU (alone) is
// compiled with -mavx2 when the configure-time ACE_SIMD option selects the
// AVX2 backend; the intrinsics below are guarded by ACE_SIMD_AVX2 so the
// file also builds cleanly as pure dispatch-to-scalar on other targets.
//
// Backend selection is configure-time (which code is compiled), the
// on/off toggle is runtime (which path dispatch takes) — the toggle is
// what lets one binary A/B the two paths in bench/micro_kriging and the
// decision-identity section of bench/decision_divergence.
#include "util/simd.hpp"

#include <atomic>

#if defined(ACE_SIMD_AVX2)
#include <immintrin.h>
#endif

namespace ace::util::simd {

namespace {

std::atomic<bool> g_enabled{true};

#if defined(ACE_SIMD_AVX2)

// 4 f64 lanes per step: acc_i = Σ_d |cols[d][i] − q_d|. abs via sign-mask
// clear — bit-exact with std::abs on doubles.
void l1_f64_avx2(const double* const* cols, std::size_t dim,
                 const double* query, std::size_t count, double* out) {
  const __m256d sign_mask = _mm256_set1_pd(-0.0);
  std::size_t i = 0;
  for (; i + 4 <= count; i += 4) {
    __m256d acc = _mm256_setzero_pd();
    for (std::size_t d = 0; d < dim; ++d) {
      const __m256d v = _mm256_loadu_pd(cols[d] + i);
      const __m256d q = _mm256_set1_pd(query[d]);
      acc = _mm256_add_pd(acc,
                          _mm256_andnot_pd(sign_mask, _mm256_sub_pd(v, q)));
    }
    _mm256_storeu_pd(out + i, acc);
  }
  for (; i < count; ++i) {
    double acc = 0.0;
    for (std::size_t d = 0; d < dim; ++d) {
      const double diff = cols[d][i] - query[d];
      acc += diff < 0.0 ? -diff : diff;
    }
    out[i] = acc;
  }
}

#endif  // ACE_SIMD_AVX2

/// True when the AVX2 backend was compiled in (CMake `ACE_SIMD`).
bool compiled_avx2() {
#if defined(ACE_SIMD_AVX2)
  return true;
#else
  return false;
#endif
}

}  // namespace

const char* backend() { return compiled_avx2() ? "avx2" : "scalar"; }

bool enabled() {
  return compiled_avx2() && g_enabled.load(std::memory_order_relaxed);
}

void set_enabled(bool on) { g_enabled.store(on, std::memory_order_relaxed); }

void l1_distances_f64(const double* const* cols, std::size_t dim,
                      const double* query, std::size_t count, double* out) {
#if defined(ACE_SIMD_AVX2)
  if (enabled()) {
    l1_f64_avx2(cols, dim, query, count, out);
    return;
  }
#endif
  l1_distances_f64_scalar(cols, dim, query, count, out);
}

}  // namespace ace::util::simd
