#include "linalg/lu.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "util/contract.hpp"

namespace ace::linalg {

double max_abs(const double* data, std::size_t count) {
  // Four independent accumulators break the latency chain of one serial
  // std::max. Each lane skips NaN entries exactly as the serial chain
  // does (std::max(m, NaN) keeps m) and max is exact, so the result is the
  // serial chain's value bit for bit.
  double m0 = 0.0;
  double m1 = 0.0;
  double m2 = 0.0;
  double m3 = 0.0;
  std::size_t i = 0;
  for (; i + 4 <= count; i += 4) {
    m0 = std::max(m0, std::abs(data[i]));
    m1 = std::max(m1, std::abs(data[i + 1]));
    m2 = std::max(m2, std::abs(data[i + 2]));
    m3 = std::max(m3, std::abs(data[i + 3]));
  }
  for (; i < count; ++i) m0 = std::max(m0, std::abs(data[i]));
  return std::max(std::max(m0, m1), std::max(m2, m3));
}

bool lu_factor_inplace(double* a, std::size_t n, std::size_t* perm) {
  for (std::size_t i = 0; i < n; ++i) perm[i] = i;

  const double scale = std::max(max_abs(a, n * n), 1e-300);
  for (std::size_t k = 0; k < n; ++k) {
    // Pivot search in column k.
    std::size_t pivot_row = k;
    double pivot_mag = std::abs(a[k * n + k]);
    for (std::size_t r = k + 1; r < n; ++r) {
      const double mag = std::abs(a[r * n + k]);
      if (mag > pivot_mag) {
        pivot_mag = mag;
        pivot_row = r;
      }
    }
    if (pivot_mag <= kPivotTolerance * scale) return false;
    if (pivot_row != k) {
      std::swap_ranges(a + k * n, a + (k + 1) * n, a + pivot_row * n);
      std::swap(perm[k], perm[pivot_row]);
    }
    const double pivot = a[k * n + k];
    for (std::size_t r = k + 1; r < n; ++r) {
      const double factor = a[r * n + k] / pivot;
      a[r * n + k] = factor;
      if (factor == 0.0) continue;  // ace-lint: allow(float-equality)
      for (std::size_t c = k + 1; c < n; ++c)
        a[r * n + c] -= factor * a[k * n + c];
    }
  }
  return true;
}

void lu_solve_inplace(const double* lu, std::size_t n, const std::size_t* perm,
                      const double* b, double* x) {
  // Forward substitution on permuted b (L has unit diagonal); x holds y.
  for (std::size_t r = 0; r < n; ++r) {
    double acc = b[perm[r]];
    for (std::size_t c = 0; c < r; ++c) acc -= lu[r * n + c] * x[c];
    x[r] = acc;
  }
  // Back substitution through U, overwriting y with x from the bottom up.
  for (std::size_t ri = n; ri-- > 0;) {
    // The factorization reports singular on any degenerate pivot, so a
    // zero divisor here means the caller solved against a failed factor.
    ACE_INVARIANT(lu[ri * n + ri] != 0.0,  // ace-lint: allow(float-equality)
                  "non-singular LU must have non-zero pivots");
    double acc = x[ri];
    for (std::size_t c = ri + 1; c < n; ++c) acc -= lu[ri * n + c] * x[c];
    x[ri] = acc / lu[ri * n + ri];
  }
}

void lu_inverse_diagonal(const double* lu, std::size_t n,
                         const std::size_t* perm, double* e, double* x,
                         double* diag) {
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) e[j] = (j == i) ? 1.0 : 0.0;
    lu_solve_inplace(lu, n, perm, e, x);
    diag[i] = x[i];
  }
}

double lu_rcond_estimate(const double* lu, std::size_t n) {
  if (n == 0) return 0.0;
  double lo = std::abs(lu[0]);
  double hi = lo;
  for (std::size_t i = 1; i < n; ++i) {
    const double p = std::abs(lu[i * n + i]);
    lo = std::min(lo, p);
    hi = std::max(hi, p);
  }
  // Exact-zero test: hi is a max of absolute values, so == 0 is precise.
  return hi == 0.0 ? 0.0 : lo / hi;  // ace-lint: allow(float-equality)
}

}  // namespace ace::linalg
