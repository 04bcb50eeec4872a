// Scalar reference kernel. This TU is compiled with auto-vectorization
// disabled (see src/util/CMakeLists.txt): it is the portable fallback when
// no vector backend is configured, and the honest "scalar" baseline the
// roofline bench (bench/micro_kriging) divides by — letting the compiler
// auto-vectorize the baseline would understate exactly the speedup the
// bench exists to attribute.
#include "util/simd.hpp"

#include <cmath>

namespace ace::util::simd {

void l1_distances_f64_scalar(const double* const* cols, std::size_t dim,
                             const double* query, std::size_t count,
                             double* out) {
  for (std::size_t i = 0; i < count; ++i) {
    double acc = 0.0;
    for (std::size_t d = 0; d < dim; ++d)
      acc += std::abs(cols[d][i] - query[d]);  // ace-lint: allow(raw-distance-loop)
    out[i] = acc;
  }
}

}  // namespace ace::util::simd
