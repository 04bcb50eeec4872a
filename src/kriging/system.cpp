#include "kriging/system.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "linalg/lu.hpp"
#include "util/contract.hpp"
#include "util/simd.hpp"

namespace ace::kriging {

namespace {

constexpr double kInitialRidge = 1e-10;
constexpr double kMaxRidge = 1e-2;
constexpr double kMaxSolutionNorm = 1e6;

/// The ladder's acceptability test: finite and norm-bounded.
bool acceptable(const std::vector<double>& x) {
  for (const double v : x)
    if (!std::isfinite(v) || std::abs(v) > kMaxSolutionNorm) return false;
  return true;
}

}  // namespace

KrigingSystem::KrigingSystem(SystemSpec spec, const VariogramModel& model,
                             L1Distance) {
  set_model(spec, model);
}

KrigingSystem::KrigingSystem(
    SystemSpec spec, const std::vector<std::vector<double>>& support_points,
    const std::vector<double>& support_values, const VariogramModel& model,
    L1Distance)
    : KrigingSystem(spec, model) {
  load(support_points, support_values);
}

void KrigingSystem::set_model(SystemSpec spec, const VariogramModel& model) {
  spec_ = spec;
  model_ = model.clone();
  entry_known_ = 0;
  loaded_ = false;
}

void KrigingSystem::load(const std::vector<std::vector<double>>& support_points,
                         const std::vector<double>& support_values) {
  if (support_points.empty())
    throw std::invalid_argument("KrigingSystem: empty support set");
  if (support_points.size() != support_values.size())
    throw std::invalid_argument("KrigingSystem: points/values mismatch");
  const std::size_t dim = support_points.front().size();
  for (const auto& p : support_points)
    if (p.size() != dim)
      throw std::invalid_argument("KrigingSystem: ragged support set");
  const std::size_t n = support_points.size();
  load(n, dim,
       [&](std::span<double> columns, std::size_t stride,
           std::span<double> values) {
         for (std::size_t k = 0; k < n; ++k) {
           for (std::size_t d = 0; d < dim; ++d)
             columns[d * stride + k] = support_points[k][d];
           values[k] = support_values[k];
         }
       });
}

void KrigingSystem::begin_load(std::size_t n, std::size_t dim) {
  if (n == 0) throw std::invalid_argument("KrigingSystem: empty support set");
  loaded_ = false;
  dim_ = dim;
  stride_ = (n + 3) & ~std::size_t{3};
  cols_.resize(dim * stride_);
  values_.resize(n);
  slots_.resize(n);
  keys_.resize(n);
  dists_.resize(stride_);
}

void KrigingSystem::finish_load() {
  // Dedupe coincident support points in place: duplicates make the
  // variogram block rank deficient (two identical rows), which would push
  // every solve into the ridge fallback. The first occurrence carries the
  // weight and moves to the front of its columns; later copies become
  // zero-weight slots. Equal points have equal keys, so coordinates are
  // compared only where the keys match (or a key is NaN, which never
  // compares equal).
  const std::size_t n = slots_.size();
  std::fill(keys_.begin(), keys_.end(), 0.0);
  for (std::size_t d = 0; d < dim_; ++d) {
    const double weight = 1.0 + 0.6180339887498949 * static_cast<double>(d);
    const double* column = cols_.data() + d * stride_;
    for (std::size_t s = 0; s < n; ++s) keys_[s] += column[s] * weight;
  }
  const auto same_point = [&](std::size_t u, std::size_t s) {
    for (std::size_t d = 0; d < dim_; ++d)
      if (coord(u, d) != coord(s, d))  // ace-lint: allow(float-equality)
        return false;
    return true;
  };
  unique_ = 0;
  for (std::size_t s = 0; s < n; ++s) {
    std::size_t u = 0;
    for (; u < unique_; ++u)
      if ((keys_[u] == keys_[s] ||  // ace-lint: allow(float-equality)
           std::isnan(keys_[s])) &&
          same_point(u, s))
        break;
    if (u < unique_) {
      slots_[s] = {u, false};
      continue;
    }
    if (u != s) {
      for (std::size_t d = 0; d < dim_; ++d)
        cols_[d * stride_ + u] = coord(s, d);
      values_[u] = values_[s];
      keys_[u] = keys_[s];
    }
    slots_[s] = {u, true};
    ++unique_;
  }
  point_.resize(dim_);
  const std::size_t m = system_size();
  rhs_.resize(m);
  x_.resize(m);
  // Size the factor now, so that a ladder climb at or below this size
  // never allocates later.
  factor_.lu.reserve(m * m);
  factor_.perm.reserve(m);
  assemble();
  loaded_ = true;
}

const std::vector<double>& KrigingSystem::row(std::size_t u) {
  for (std::size_t d = 0; d < dim_; ++d) point_[d] = coord(u, d);
  return point_;
}

void KrigingSystem::distances_to(const std::vector<double>& x,
                                 std::size_t first) {
  col_ptrs_.resize(dim_);
  for (std::size_t d = 0; d < dim_; ++d)
    col_ptrs_[d] = cols_.data() + d * stride_ + first;
  util::simd::l1_distances_f64(col_ptrs_.data(), dim_, x.data(),
                               stride_ - first, dists_.data());
}

double KrigingSystem::entry_of(double d) {
  // Neighbourhood distances on the configuration lattice are a handful of
  // small integers (at most 2r+1 values inside an L1 ball of radius r), so
  // each is mapped through the model once per model binding. The memo
  // returns the very double the model produced; other distances
  // (fractional, large, −0.0) are not memoised.
  if (!std::signbit(d) && d < static_cast<double>(kEntryMemo)) {
    const auto i = static_cast<std::size_t>(d);
    if (static_cast<double>(i) == d) {  // ace-lint: allow(float-equality)
      const std::uint64_t bit = std::uint64_t{1} << i;
      if ((entry_known_ & bit) == 0) {
        entry_memo_[i] = model_->gamma(d);
        entry_known_ |= bit;
      }
      return entry_memo_[i];
    }
  }
  return model_->gamma(d);
}

void KrigingSystem::assemble() {
  const std::size_t n = unique_;
  const std::size_t m = system_size();
  gamma_.resize(m * m);
  double* a = gamma_.data();
  // Variogram block, one batched row at a time: distances from point j to
  // the contiguous tail stream the SoA columns through the SIMD kernel
  // (bit-identical per-entry to l1_distance). The tail starts at j rounded
  // down to a multiple of 4 and ends at the padded stride, so the kernel
  // runs whole 4-lane vectors only.
  for (std::size_t j = 0; j < n; ++j) {
    const std::size_t first = j & ~std::size_t{3};
    distances_to(row(j), first);
    for (std::size_t k = j; k < n; ++k) {
      const double g = k == j ? entry_of(0.0) : entry_of(dists_[k - first]);
      a[j * m + k] = g;
      a[k * m + j] = g;
    }
    a[j * m + n] = 1.0;
    a[n * m + j] = 1.0;
    // The direct path added its shift here even at 0: + 0.0 turns a −0.0
    // diagonal into +0.0, so keep it for bit identity.
    a[j * m + j] += 0.0;
  }
  a[n * m + n] = 0.0;
}

void KrigingSystem::assemble_rhs(const std::vector<double>& q) {
  const std::size_t n = unique_;
  // Batched γ-vector: all query→support distances in one kernel pass.
  distances_to(q, 0);
  for (std::size_t k = 0; k < n; ++k) rhs_[k] = entry_of(dists_[k]);
  rhs_[n] = 1.0;
}

double KrigingSystem::ladder_scale() const {
  // The exact scale of the tests' oracle linalg::robust_solve: max(|A|, 1)
  // over the *unshifted* matrix.
  return std::max(linalg::max_abs(gamma_.data(), gamma_.size()), 1.0);
}

bool KrigingSystem::factor_at(double shift) {
  ++stats_.full_factorizations;
  const std::size_t m = system_size();
  factor_.lu.assign(gamma_.begin(), gamma_.end());
  if (shift > 0.0)
    for (std::size_t i = 0; i < unique_; ++i) factor_.lu[i * m + i] += shift;
  factor_.perm.resize(m);
  return linalg::lu_factor_inplace(factor_.lu.data(), m, factor_.perm.data());
}

bool KrigingSystem::query(const std::vector<double>& q, KrigingResult& out) {
  if (!loaded_)
    throw std::logic_error("KrigingSystem::query: no support loaded");
  if (q.size() != dim_)
    throw std::invalid_argument("KrigingSystem: dimension mismatch");
  ++stats_.solves;
  assemble_rhs(q);
  const std::size_t m = system_size();
  const auto solves_acceptably = [&](double shift) {
    if (!factor_at(shift)) return false;
    linalg::lu_solve_inplace(factor_.lu.data(), m, factor_.perm.data(),
                             rhs_.data(), x_.data());
    return acceptable(x_);
  };

  // The ridge ladder: plain solve first, then growing ridge on the
  // non-border diagonal.
  if (solves_acceptably(0.0)) return finalize(0.0, out);
  const double scale = ladder_scale();
  for (double ridge = kInitialRidge; ridge <= kMaxRidge; ridge *= 100.0) {
    const double shift = ridge * scale;
    if (solves_acceptably(shift)) return finalize(shift, out);
  }
  return false;
}

std::optional<KrigingResult> KrigingSystem::query(const std::vector<double>& q) {
  KrigingResult result;
  if (!query(q, result)) return std::nullopt;
  return result;
}

std::optional<KrigingSystem::LooReport> KrigingSystem::loo_residuals() {
  if (!loaded_)
    throw std::logic_error("KrigingSystem::loo_residuals: no support loaded");
  const std::size_t n = unique_;
  // One point leaves nothing to predict from.
  if (n < 2) return std::nullopt;
  const std::size_t m = system_size();

  // z̃: values on data rows, zero on the border.
  std::vector<double> z(m, 0.0);
  for (std::size_t k = 0; k < n; ++k) z[k] = values_[k];
  std::vector<double> u(m), diag(m), e(m), x(m);

  // Dubrule's identity on whichever shifted matrix actually factors: with
  // B = A⁻¹, u = B·z̃, e_i = u_i / B_ii. In covariance form σ²₍ᵢ₎ would be
  // 1/B_ii; the γ-form bordered matrix is A_γ = −S·A_cov·S for the sign
  // flip S = diag(I, −1), so its data-block inverse diagonal is the
  // negated covariance one: the residual ratio is unchanged and the LOO
  // variance becomes −1/B_ii.
  const auto attempt = [&](double shift) -> std::optional<LooReport> {
    if (!factor_at(shift)) return std::nullopt;
    linalg::lu_solve_inplace(factor_.lu.data(), m, factor_.perm.data(),
                             z.data(), u.data());
    linalg::lu_inverse_diagonal(factor_.lu.data(), m, factor_.perm.data(),
                                e.data(), x.data(), diag.data());
    LooReport report;
    report.shift = shift;
    report.regularized = shift > 0.0;
    report.residuals.resize(n);
    report.variances.resize(n);
    for (std::size_t k = 0; k < n; ++k) {
      const double d = diag[k];
      if (!std::isfinite(d) || d == 0.0 ||  // ace-lint: allow(float-equality)
          !std::isfinite(u[k]))
        return std::nullopt;
      const double res = u[k] / d;
      if (!std::isfinite(res) || std::abs(res) > kMaxSolutionNorm)
        return std::nullopt;
      report.residuals[k] = res;
      report.variances[k] = std::max(-1.0 / d, 0.0);
    }
    return report;
  };

  // The same ladder as query(): plain solve first, then growing ridge.
  if (auto report = attempt(0.0)) return report;
  const double scale = ladder_scale();
  for (double ridge = kInitialRidge; ridge <= kMaxRidge; ridge *= 100.0)
    if (auto report = attempt(ridge * scale)) return report;
  return std::nullopt;
}

bool KrigingSystem::finalize(double shift, KrigingResult& out) const {
  const std::size_t n = unique_;
  out.regularized = shift > 0.0;
  out.ridge = shift;
  out.rcond = linalg::lu_rcond_estimate(factor_.lu.data(), system_size());

  double estimate = 0.0;
  double variance = 0.0;
  for (std::size_t k = 0; k < n; ++k) {
    const double w = x_[k];
    estimate += w * values_[k];
    variance += w * rhs_[k];
  }
  // The Lagrange multiplier term of the kriging variance.
  variance += x_[n];
  if (!std::isfinite(estimate)) return false;
  out.estimate = estimate;
  out.variance = std::max(variance, 0.0);
  out.weights.resize(slots_.size());
  for (std::size_t s = 0; s < slots_.size(); ++s)
    out.weights[s] = slots_[s].owner ? x_[slots_[s].unique] : 0.0;

#if ACE_CONTRACTS_ENABLED
  // The border row (Σ w_k = 1, unbiasedness) is an *exact* equation of
  // the solved system — the ridge fallback shifts only the non-border
  // diagonal, never the border — so the solved weights must honour it to
  // solver precision.
  {
    double weight_sum = 0.0;
    double abs_sum = 0.0;
    for (std::size_t k = 0; k < n; ++k) {
      weight_sum += x_[k];
      abs_sum += std::abs(x_[k]);
    }
    ACE_ENSURE(std::abs(weight_sum - 1.0) <= 1e-8 * std::max(1.0, abs_sum),
               "kriging weights must sum to 1 (unbiasedness)");
  }
#endif
  ACE_ENSURE(std::isfinite(out.variance) && out.variance >= 0.0,
             "kriging variance must be finite and non-negative");
  return true;
}

}  // namespace ace::kriging
