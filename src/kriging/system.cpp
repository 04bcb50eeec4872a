#include "kriging/system.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "util/contract.hpp"
#include "util/simd.hpp"

namespace ace::kriging {

namespace {

constexpr double kInitialRidge = 1e-10;
constexpr double kMaxRidge = 1e-2;
constexpr double kMaxSolutionNorm = 1e6;

/// The legacy robust_solve acceptability test: finite and norm-bounded.
bool acceptable(const linalg::Vector& x) {
  for (std::size_t i = 0; i < x.size(); ++i)
    if (!std::isfinite(x[i]) || std::abs(x[i]) > kMaxSolutionNorm)
      return false;
  return true;
}

}  // namespace

KrigingSystem::KrigingSystem(SystemSpec spec,
                             std::vector<std::vector<double>> support_points,
                             std::vector<double> support_values,
                             const VariogramModel& model, DistanceFn distance,
                             Layout layout)
    : spec_(spec), model_(model.clone()), distance_(std::move(distance)),
      layout_(layout), distance_kind_(distance_kind(distance_)) {
  if (support_points.empty())
    throw std::invalid_argument("KrigingSystem: empty support set");
  if (support_points.size() != support_values.size())
    throw std::invalid_argument("KrigingSystem: points/values mismatch");
  dim_ = support_points.front().size();
  for (const auto& p : support_points)
    if (p.size() != dim_)
      throw std::invalid_argument("KrigingSystem: ragged support set");
  if (spec_.kind == SystemKind::kSimple &&
      (spec_.sill <= 0.0 || !std::isfinite(spec_.sill)))
    throw std::invalid_argument("KrigingSystem: sill must be positive");
  if (spec_.noise_nugget < 0.0 || !std::isfinite(spec_.noise_nugget))
    throw std::invalid_argument(
        "KrigingSystem: noise nugget must be finite and non-negative");

  // Dedupe coincident support points: duplicates make the variogram block
  // rank deficient (two identical rows), which used to push every solve
  // into the ridge fallback. The first occurrence carries the weight;
  // later copies become zero-weight slots.
  for (std::size_t s = 0; s < support_points.size(); ++s) {
    auto& p = support_points[s];
    std::size_t u = points_.size();
    for (std::size_t i = 0; i < points_.size(); ++i)
      if (points_[i] == p) {
        u = i;
        break;
      }
    if (u == points_.size()) {
      points_.push_back(std::move(p));
      values_.push_back(support_values[s]);
      slots_.push_back({u, true});
    } else {
      slots_.push_back({u, false});
    }
  }
  rebuild_columns(points_.size());
  (void)refresh_border();
  base_points_ = layout_ == Layout::kAllInBase
                     ? points_.size()
                     : std::min(points_.size(),
                                std::max<std::size_t>(1, border_));
}

void KrigingSystem::rebuild_columns(std::size_t stride) {
  stride_ = stride;
  cols_.assign(dim_ * stride_, 0.0);
  for (std::size_t u = 0; u < points_.size(); ++u)
    for (std::size_t d = 0; d < dim_; ++d)
      cols_[d * stride_ + u] = points_[u][d];
}

void KrigingSystem::distances_to(const std::vector<double>& x,
                                 std::size_t first, std::size_t n,
                                 std::vector<const double*>& cols,
                                 double* out) const {
  if (distance_kind_ == DistanceKind::kCustom) {
    for (std::size_t k = first; k < n; ++k)
      out[k - first] = distance_(x, points_[k]);
    return;
  }
  cols.resize(dim_);
  for (std::size_t d = 0; d < dim_; ++d)
    cols[d] = cols_.data() + d * stride_ + first;
  if (distance_kind_ == DistanceKind::kL1)
    util::simd::l1_distances_f64(cols.data(), dim_, x.data(), n - first, out);
  else
    util::simd::l2_distances_f64(cols.data(), dim_, x.data(), n - first, out);
}

bool KrigingSystem::refresh_border() {
  DriftKind effective = spec_.drift;
  std::size_t border = 0;
  switch (spec_.kind) {
    case SystemKind::kOrdinary:
      border = 1;
      break;
    case SystemKind::kSimple:
      border = 0;
      break;
    case SystemKind::kUniversal:
      // A linear drift adds dim + 1 constraints; identifying it needs at
      // least dim + 2 support points — otherwise degrade gracefully to the
      // constant drift (= ordinary kriging), as the legacy wrapper did.
      if (effective == DriftKind::kLinear && points_.size() < dim_ + 2)
        effective = DriftKind::kConstant;
      border = effective == DriftKind::kConstant ? 1 : dim_ + 1;
      break;
  }
  const bool changed =
      border != border_ || effective != effective_drift_;
  effective_drift_ = effective;
  border_ = border;
  return changed;
}

double KrigingSystem::entry_of(double d) const {
  // Neighbourhood distances on the configuration lattice are a handful of
  // small integers (at most 2r+1 values inside an L1 ball of radius r), so
  // each is mapped through the model once per system. The memo returns
  // the very double the model produced; other distances (fractional, L2,
  // large, −0.0) are not memoised.
  if (!std::signbit(d) && d < static_cast<double>(kEntryMemo)) {
    const auto i = static_cast<std::size_t>(d);
    if (static_cast<double>(i) == d) {  // ace-lint: allow(float-equality)
      const std::uint64_t bit = std::uint64_t{1} << i;
      if ((entry_known_ & bit) == 0) {
        entry_memo_[i] = model_entry(d);
        entry_known_ |= bit;
      }
      return entry_memo_[i];
    }
  }
  return model_entry(d);
}

double KrigingSystem::model_entry(double d) const {
  if (spec_.kind == SystemKind::kSimple)
    return std::max(spec_.sill - model_->gamma(d), 0.0);
  return model_->gamma(d);
}

double KrigingSystem::diagonal_entry() const {
  // Guard the zero case exactly: τ² = 0 must assemble bit-identically to
  // the pre-nugget system (the policy's default-gate identity contract).
  if (spec_.noise_nugget == 0.0)  // ace-lint: allow(float-equality)
    return entry_of(0.0);
  return spec_.kind == SystemKind::kSimple
             ? entry_of(0.0) + spec_.noise_nugget
             : entry_of(0.0) - spec_.noise_nugget;
}

double KrigingSystem::pair_entry(std::size_t i, std::size_t j) const {
  return entry_of(distance_(points_[i], points_[j]));
}

double KrigingSystem::drift_entry(const std::vector<double>& x,
                                  std::size_t l) const {
  // Border column l: the constant 1 (Lagrange row of ordinary kriging, the
  // constant drift) first, then one column per coordinate for the linear
  // drift. Simple kriging has no border, so it never gets here.
  return l == 0 ? 1.0 : x[l - 1];
}

std::size_t KrigingSystem::matrix_index(std::size_t i) const {
  return i < base_points_ ? i : i + border_;
}

linalg::Matrix KrigingSystem::assemble(double shift, std::size_t n) const {
  const std::size_t m = n + border_;
  linalg::Matrix a(m, m);
  // Variogram block, one batched row at a time: distances from point j to
  // the contiguous tail j..n-1 stream the SoA columns through the SIMD
  // kernel (bit-identical per-entry to the scalar distance_ call).
  std::vector<double> dists(n);
  std::vector<const double*> cols;
  for (std::size_t j = 0; j < n; ++j) {
    const std::size_t mj = matrix_index(j);
    distances_to(points_[j], j, n, cols, dists.data());
    for (std::size_t k = j; k < n; ++k) {
      const std::size_t mk = matrix_index(k);
      const double g = k == j ? diagonal_entry() : entry_of(dists[k - j]);
      a(mj, mk) = g;
      a(mk, mj) = g;
    }
    for (std::size_t l = 0; l < border_; ++l) {
      const double f = drift_entry(points_[j], l);
      a(mj, base_points_ + l) = f;
      a(base_points_ + l, mj) = f;
    }
    a(mj, mj) += shift;
  }
  return a;
}

linalg::Vector KrigingSystem::assemble_rhs(const std::vector<double>& q) const {
  linalg::Vector rhs(system_size());
  const std::size_t n = points_.size();
  // Batched γ-vector: all query→support distances in one kernel pass.
  std::vector<double> dists(n);
  std::vector<const double*> cols;
  distances_to(q, 0, n, cols, dists.data());
  for (std::size_t k = 0; k < n; ++k)
    rhs[matrix_index(k)] = entry_of(dists[k]);
  for (std::size_t l = 0; l < border_; ++l)
    rhs[base_points_ + l] = drift_entry(q, l);
  return rhs;
}

std::vector<double> KrigingSystem::coupling_of(std::size_t i) const {
  // Coupling of unique point i against points 0..i-1 plus the border — the
  // exact state of a factor that already holds everything before i.
  std::vector<double> c(i + border_, 0.0);
  for (std::size_t j = 0; j < i; ++j)
    c[matrix_index(j)] = pair_entry(i, j);
  for (std::size_t l = 0; l < border_; ++l)
    c[base_points_ + l] = drift_entry(points_[i], l);
  return c;
}

double KrigingSystem::ladder_scale() const {
  // The exact scale of linalg::robust_solve: max(|A|, 1) over the
  // *unshifted* matrix. Reuse the plain factor's assembled copy when one
  // exists; otherwise assemble once.
  for (const Factor& f : factors_)
    if (f.shift == 0.0)  // ace-lint: allow(float-equality)
      return std::max(f.ldlt->assembled().max_abs(), 1.0);
  return std::max(assemble(0.0, points_.size()).max_abs(), 1.0);
}

void KrigingSystem::invalidate_factors() {
  factors_.clear();
  singular_shifts_.clear();
}

linalg::BorderedLdlt* KrigingSystem::factor_at(double shift) {
  // Shifts are recomputed identically per query while the support stands
  // still (ridge · scale over the same matrix), so exact comparison is the
  // correct memo key; both memos are cleared on any support change.
  for (Factor& f : factors_)
    if (f.shift == shift)  // ace-lint: allow(float-equality)
      return f.ldlt.get();
  for (double s : singular_shifts_)
    if (s == shift)  // ace-lint: allow(float-equality)
      return nullptr;

  const std::size_t n = points_.size();
  auto build_all_in_base = [&]() -> std::unique_ptr<linalg::BorderedLdlt> {
    ++stats_.full_factorizations;
    auto ldlt =
        std::make_unique<linalg::BorderedLdlt>(assemble(shift, n), shift);
    return ldlt->ok() ? std::move(ldlt) : nullptr;
  };

  std::unique_ptr<linalg::BorderedLdlt> ldlt;
  if (base_points_ >= n) {
    ldlt = build_all_in_base();
  } else {
    // Incremental layout: factor the minimal base (first points + border),
    // then fold the remaining support in one Schur pivot at a time.
    // Every base point sits at its own index and the border right after
    // it, so the base block is exactly the system over the first
    // base_points_ points.
    ++stats_.full_factorizations;
    ldlt = std::make_unique<linalg::BorderedLdlt>(
        assemble(shift, base_points_), shift);
    bool incremental_ok = ldlt->ok();
    for (std::size_t u = base_points_; incremental_ok && u < n; ++u) {
      if (ldlt->append_point(coupling_of(u), diagonal_entry()))
        ++stats_.appends;
      else
        incremental_ok = false;
    }
    // Degrade rather than fail: a base or pivot collapse the whole-matrix
    // pivoted LU could still handle (e.g. a collinear base in universal
    // kriging) must not make the incremental layout reject a query the
    // direct path would answer — that would let optimizer decisions
    // diverge between the cached and direct paths.
    if (!incremental_ok) ldlt = build_all_in_base();
  }

  if (!ldlt) {
    singular_shifts_.push_back(shift);
    return nullptr;
  }
  factors_.push_back(Factor{shift, std::move(ldlt)});
  return factors_.back().ldlt.get();
}

std::optional<KrigingResult> KrigingSystem::query(
    const std::vector<double>& q) {
  if (q.size() != dim_)
    throw std::invalid_argument("KrigingSystem: dimension mismatch");
  ++stats_.solves;
  const linalg::Vector rhs = assemble_rhs(q);

  // The legacy robust_solve ladder, rung for rung: plain solve first, then
  // growing ridge on the non-border diagonal. Factor construction (and its
  // singularity) depends only on the matrix, so factors and singularity
  // verdicts are memoized across queries; the acceptability test depends
  // on the right-hand side and is re-run per query.
  double shift = 0.0;
  std::optional<linalg::Vector> solution;
  linalg::BorderedLdlt* used = nullptr;
  if (linalg::BorderedLdlt* f = factor_at(0.0)) {
    linalg::Vector x = f->solve(rhs);
    if (acceptable(x)) {
      solution = std::move(x);
      used = f;
    }
  }
  if (!solution) {
    const double scale = ladder_scale();
    for (double ridge = kInitialRidge; ridge <= kMaxRidge; ridge *= 100.0) {
      shift = ridge * scale;
      linalg::BorderedLdlt* f = factor_at(shift);
      if (!f) continue;
      linalg::Vector x = f->solve(rhs);
      if (acceptable(x)) {
        solution = std::move(x);
        used = f;
        break;
      }
    }
    if (!solution) return std::nullopt;
  }
  return finalize(q, rhs, *solution, shift, used);
}

std::optional<KrigingSystem::LooReport> KrigingSystem::loo_residuals() {
  const std::size_t n = points_.size();
  // One point leaves nothing to predict from; universal kriging further
  // needs the LOO subsets to keep the same effective drift as the full
  // system for Dubrule's identity to describe a real scratch refit.
  if (n < 2) return std::nullopt;
  if (spec_.kind == SystemKind::kUniversal &&
      effective_drift_ == DriftKind::kLinear && n < dim_ + 3)
    return std::nullopt;
  const std::size_t m = system_size();

  // z̃ in layout order: (centred) values on data rows, zeros on the border.
  linalg::Vector z(m);
  for (std::size_t k = 0; k < n; ++k)
    z[matrix_index(k)] = spec_.kind == SystemKind::kSimple
                             ? values_[k] - spec_.mean
                             : values_[k];

  // Dubrule's identity on whichever shifted matrix actually factors: with
  // B = A⁻¹, u = B·z̃, e_i = u_i / B_ii and σ²₍ᵢ₎ = 1/B_ii (covariance
  // form). The γ-form bordered matrix is A_γ = −S·A_cov·S for the sign
  // flip S = diag(I, −I_border), so its data-block inverse diagonal is the
  // negated covariance one: the residual ratio is unchanged and the LOO
  // variance becomes −1/B_ii.
  const auto attempt = [&](double shift) -> std::optional<LooReport> {
    linalg::BorderedLdlt* f = factor_at(shift);
    if (!f) return std::nullopt;
    const linalg::Vector u = f->solve(z);
    const linalg::Vector diag = f->inverse_diagonal();
    LooReport report;
    report.shift = shift;
    report.regularized = shift > 0.0;
    report.residuals.resize(n);
    report.variances.resize(n);
    for (std::size_t k = 0; k < n; ++k) {
      const std::size_t mk = matrix_index(k);
      const double d = diag[mk];
      if (!std::isfinite(d) || d == 0.0 ||  // ace-lint: allow(float-equality)
          !std::isfinite(u[mk]))
        return std::nullopt;
      const double e = u[mk] / d;
      if (!std::isfinite(e) || std::abs(e) > kMaxSolutionNorm)
        return std::nullopt;
      report.residuals[k] = e;
      const double var =
          spec_.kind == SystemKind::kSimple ? 1.0 / d : -1.0 / d;
      report.variances[k] = std::max(var, 0.0);
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

std::optional<KrigingResult> KrigingSystem::finalize(
    const std::vector<double>& q, const linalg::Vector& rhs,
    const linalg::Vector& x, double shift,
    const linalg::BorderedLdlt* used) const {
  const std::size_t n = points_.size();
  KrigingResult result;
  result.regularized = shift > 0.0;
  result.ridge = shift;
  result.rcond = used->rcond_estimate();

  double estimate = spec_.kind == SystemKind::kSimple ? spec_.mean : 0.0;
  double variance =
      spec_.kind == SystemKind::kSimple
          ? std::max(spec_.sill - model_->gamma(0.0), 0.0)
          : 0.0;
  std::vector<double> unique_weights(n);
  for (std::size_t k = 0; k < n; ++k) {
    const double w = x[matrix_index(k)];
    unique_weights[k] = w;
    switch (spec_.kind) {
      case SystemKind::kOrdinary:
      case SystemKind::kUniversal:
        estimate += w * values_[k];
        variance += w * rhs[matrix_index(k)];
        break;
      case SystemKind::kSimple:
        estimate += w * (values_[k] - spec_.mean);
        variance -= w * rhs[matrix_index(k)];
        break;
    }
  }
  // Lagrange / drift multiplier terms of the kriging variance.
  if (spec_.kind != SystemKind::kSimple) {
    for (std::size_t l = 0; l < border_; ++l)
      variance += x[base_points_ + l] * drift_entry(q, l);
  }
  if (!std::isfinite(estimate)) return std::nullopt;
  result.estimate = estimate;
  result.variance = std::max(variance, 0.0);
  result.weights.resize(slots_.size(), 0.0);
  for (std::size_t s = 0; s < slots_.size(); ++s)
    result.weights[s] = slots_[s].owner ? unique_weights[slots_[s].unique] : 0.0;

#if ACE_CONTRACTS_ENABLED
  // The first border row (Σ w_k = 1, unbiasedness) is an *exact* equation
  // of the solved system — the ridge fallback shifts only the non-border
  // diagonal, never the border — so the solved weights must honour it to
  // solver precision. Simple kriging has no such constraint (known mean).
  if (spec_.kind != SystemKind::kSimple) {
    double weight_sum = 0.0;
    double abs_sum = 0.0;
    for (std::size_t k = 0; k < n; ++k) {
      weight_sum += unique_weights[k];
      abs_sum += std::abs(unique_weights[k]);
    }
    ACE_ENSURE(std::abs(weight_sum - 1.0) <= 1e-8 * std::max(1.0, abs_sum),
               "kriging weights must sum to 1 (unbiasedness)");
  }
#endif
  ACE_ENSURE(std::isfinite(result.variance) && result.variance >= 0.0,
             "kriging variance must be finite and non-negative");
  return result;
}

void KrigingSystem::append_point(std::vector<double> point, double value) {
  if (point.size() != dim_)
    throw std::invalid_argument("KrigingSystem: dimension mismatch");
  for (std::size_t i = 0; i < points_.size(); ++i)
    if (points_[i] == point) {
      slots_.push_back({i, false});  // Coincident: zero-weight slot.
      return;
    }

  const std::size_t u = points_.size();
  points_.push_back(std::move(point));
  values_.push_back(value);
  if (u >= stride_) {
    rebuild_columns(2 * u + 1);  // Amortized growth of every column.
  } else {
    for (std::size_t d = 0; d < dim_; ++d)
      cols_[d * stride_ + u] = points_[u][d];
  }
  slots_.push_back({u, true});

  if (layout_ == Layout::kAllInBase) {
    base_points_ = points_.size();
    (void)refresh_border();
    invalidate_factors();
    return;
  }
  if (refresh_border()) {
    // The border width changed (universal kriging crossing the dim + 2
    // threshold): the layout itself moved, so every factor is stale.
    base_points_ = std::min(points_.size(),
                            std::max<std::size_t>(1, border_));
    invalidate_factors();
    return;
  }
  // Extend the plain factor in place; ladder-rung factors and singularity
  // memos are matrix-dependent and must be rebuilt on demand.
  std::unique_ptr<linalg::BorderedLdlt> primary;
  for (Factor& f : factors_)
    if (f.shift == 0.0)  // ace-lint: allow(float-equality)
      primary = std::move(f.ldlt);
  factors_.clear();
  singular_shifts_.clear();
  if (primary && primary->size() == system_size() - 1 &&
      primary->append_point(coupling_of(u), diagonal_entry())) {
    ++stats_.appends;
    factors_.push_back(Factor{0.0, std::move(primary)});
  }
}

bool KrigingSystem::removable(std::size_t slot) const {
  if (slot >= slots_.size()) return false;
  if (!slots_[slot].owner) return true;  // Zero-weight duplicate.
  if (slots_[slot].unique < base_points_) return false;
  // An owner with remaining duplicate slots cannot be dropped: the
  // duplicates would dangle.
  for (std::size_t s = 0; s < slots_.size(); ++s)
    if (s != slot && slots_[s].unique == slots_[slot].unique) return false;
  return true;
}

bool KrigingSystem::remove_point(std::size_t slot) {
  if (!removable(slot)) return false;
  const Slot victim = slots_[slot];
  slots_.erase(slots_.begin() + static_cast<std::ptrdiff_t>(slot));
  if (!victim.owner) return true;  // No factor content to touch.

  const std::size_t u = victim.unique;
  points_.erase(points_.begin() + static_cast<std::ptrdiff_t>(u));
  values_.erase(values_.begin() + static_cast<std::ptrdiff_t>(u));
  rebuild_columns(stride_);
  for (Slot& s : slots_)
    if (s.unique > u) --s.unique;

  // Downdate the plain factor when possible; a degenerate downdate (or a
  // border-width change) just invalidates, and the next query refactors.
  std::unique_ptr<linalg::BorderedLdlt> primary;
  for (Factor& f : factors_)
    if (f.shift == 0.0)  // ace-lint: allow(float-equality)
      primary = std::move(f.ldlt);
  factors_.clear();
  singular_shifts_.clear();
  if (refresh_border()) {
    base_points_ = std::min(points_.size(),
                            std::max<std::size_t>(1, border_));
  } else if (primary && primary->remove_point(u - base_points_)) {
    ++stats_.removals;
    factors_.push_back(Factor{0.0, std::move(primary)});
  }
  return true;
}

}  // namespace ace::kriging
