#include "linalg/solve.hpp"

#include <algorithm>
#include <cmath>

#include "linalg/lu_decomposition.hpp"

namespace ace::linalg {

namespace {

constexpr double kInitialRidge = 1e-10;
constexpr double kMaxRidge = 1e-2;
constexpr double kMaxSolutionNorm = 1e6;

bool acceptable(const Vector& v) {
  for (std::size_t i = 0; i < v.size(); ++i)
    if (!std::isfinite(v[i]) || std::abs(v[i]) > kMaxSolutionNorm)
      return false;
  return true;
}

std::optional<Vector> try_solve(const Matrix& a, const Vector& b,
                                double& rcond_out) {
  LuDecomposition lu(a);
  if (lu.singular()) return std::nullopt;
  Vector x = lu.solve(b);
  if (!acceptable(x)) return std::nullopt;
  rcond_out = lu.rcond_estimate();
  return x;
}

}  // namespace

std::optional<Vector> robust_solve(const Matrix& a, const Vector& b,
                                   SolveReport& report, std::size_t border) {
  report = SolveReport{};
  double rcond = 0.0;
  if (auto x = try_solve(a, b, rcond)) {
    report.ok = true;
    report.rcond = rcond;
    return x;
  }

  const std::size_t n = a.rows();
  const std::size_t core = border <= n ? n - border : 0;
  const double scale = std::max(max_abs(a.data(), n * a.cols()), 1.0);
  for (double ridge = kInitialRidge; ridge <= kMaxRidge; ridge *= 100.0) {
    Matrix regularized = a;
    for (std::size_t i = 0; i < core; ++i)
      regularized(i, i) += ridge * scale;
    if (auto x = try_solve(regularized, b, rcond)) {
      report.ok = true;
      report.regularized = true;
      report.ridge = ridge * scale;
      report.rcond = rcond;
      return x;
    }
  }
  return std::nullopt;
}

}  // namespace ace::linalg
