#include "linalg/ldlt.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

namespace ace::linalg {

BorderedLdlt::BorderedLdlt(Matrix base, double append_shift,
                           double pivot_tolerance)
    : a_(std::move(base)), append_shift_(append_shift),
      tol_(pivot_tolerance) {
  if (!a_.square())
    throw std::invalid_argument("BorderedLdlt: base must be square");
  base_n_ = a_.rows();
  lu_.emplace(a_, tol_);
  ok_ = !lu_->singular();
}

bool BorderedLdlt::append_point(const std::vector<double>& coupling,
                                double diagonal) {
  if (!ok_)
    throw std::runtime_error("BorderedLdlt::append_point: singular base");
  const std::size_t m = size();
  if (coupling.size() != m)
    throw std::invalid_argument("BorderedLdlt::append_point: size mismatch");
  const std::size_t k = appended();
  const double shifted_diag = diagonal + append_shift_;

  // Base coupling and its base solve y = B⁻¹·u.
  Vector ub(base_n_);
  for (std::size_t i = 0; i < base_n_; ++i) ub[i] = coupling[i];
  const Vector y = lu_->solve(ub);

  // New Schur row: s_j = A(m, n0+j) − u_jᵀ·B⁻¹·u  (symmetric in u, u_j).
  std::vector<double> s_row(k + 1, 0.0);
  for (std::size_t j = 0; j < k; ++j) {
    double dot = 0.0;
    for (std::size_t i = 0; i < base_n_; ++i) dot += a_(base_n_ + j, i) * y[i];
    s_row[j] = coupling[base_n_ + j] - dot;
  }
  {
    double dot = 0.0;
    for (std::size_t i = 0; i < base_n_; ++i) dot += ub[i] * y[i];
    s_row[k] = shifted_diag - dot;
  }

  // One LDLT step on S: forward-solve the new strictly-lower row, then
  // form the new pivot. A collapsed pivot means the appended point adds no
  // independent information (coincident/collinear support) — reject it.
  std::vector<double> l_row(k, 0.0);
  double pivot = s_row[k];
  for (std::size_t i = 0; i < k; ++i) {
    double acc = s_row[i];
    for (std::size_t j = 0; j < i; ++j)
      acc -= l_row[j] * ldl_d_[j] * ldl_l_[i][j];
    l_row[i] = acc / ldl_d_[i];
    pivot -= l_row[i] * l_row[i] * ldl_d_[i];
  }
  const double scale =
      std::max({a_.max_abs(), std::abs(shifted_diag), 1e-300});
  if (!std::isfinite(pivot) || std::abs(pivot) <= tol_ * scale) return false;

  // Commit: grow the assembled matrix, the Schur complement and the LDLT.
  Matrix grown(m + 1, m + 1);
  for (std::size_t r = 0; r < m; ++r)
    for (std::size_t c = 0; c < m; ++c) grown(r, c) = a_(r, c);
  for (std::size_t i = 0; i < m; ++i) {
    grown(m, i) = coupling[i];
    grown(i, m) = coupling[i];
  }
  grown(m, m) = shifted_diag;
  a_ = std::move(grown);

  ys_.push_back(y);
  for (std::size_t j = 0; j < k; ++j) s_[j].push_back(s_row[j]);
  s_.push_back(std::move(s_row));
  ldl_l_.push_back(std::move(l_row));
  ldl_d_.push_back(pivot);
  return true;
}

bool BorderedLdlt::refactor_schur() {
  const std::size_t k = s_.size();
  std::vector<std::vector<double>> l(k);
  std::vector<double> d(k, 0.0);
  const double scale = std::max(a_.max_abs(), 1e-300);
  for (std::size_t r = 0; r < k; ++r) {
    l[r].assign(r, 0.0);
    double pivot = s_[r][r];
    for (std::size_t i = 0; i < r; ++i) {
      double acc = s_[r][i];
      for (std::size_t j = 0; j < i; ++j) acc -= l[r][j] * d[j] * l[i][j];
      l[r][i] = acc / d[i];
      pivot -= l[r][i] * l[r][i] * d[i];
    }
    if (!std::isfinite(pivot) || std::abs(pivot) <= tol_ * scale)
      return false;
    d[r] = pivot;
  }
  ldl_l_ = std::move(l);
  ldl_d_ = std::move(d);
  return true;
}

bool BorderedLdlt::remove_point(std::size_t appended_index) {
  const std::size_t k = appended();
  if (appended_index >= k) return false;

  // Stage the downdated state, refactor, and only then commit — a
  // degenerate refactorization must leave the object untouched.
  const std::size_t m = size();
  const std::size_t drop = base_n_ + appended_index;
  Matrix shrunk(m - 1, m - 1);
  for (std::size_t r = 0, rr = 0; r < m; ++r) {
    if (r == drop) continue;
    for (std::size_t c = 0, cc = 0; c < m; ++c) {
      if (c == drop) continue;
      shrunk(rr, cc) = a_(r, c);
      ++cc;
    }
    ++rr;
  }
  auto s_backup = s_;
  s_.erase(s_.begin() + static_cast<std::ptrdiff_t>(appended_index));
  for (auto& row : s_)
    row.erase(row.begin() + static_cast<std::ptrdiff_t>(appended_index));
  if (!refactor_schur()) {
    s_ = std::move(s_backup);
    return false;
  }
  a_ = std::move(shrunk);
  ys_.erase(ys_.begin() + static_cast<std::ptrdiff_t>(appended_index));
  return true;
}

Vector BorderedLdlt::block_solve(const Vector& b) const {
  const std::size_t k = appended();
  if (k == 0) return lu_->solve(b);  // b is exactly the base block.
  Vector b1(base_n_);
  for (std::size_t i = 0; i < base_n_; ++i) b1[i] = b[i];
  const Vector u1 = lu_->solve(b1);

  // t = b2 − Uᵀ·B⁻¹·b1, then S·x2 = t via the LDLT factors.
  std::vector<double> t(k, 0.0);
  for (std::size_t j = 0; j < k; ++j) {
    double dot = 0.0;
    for (std::size_t i = 0; i < base_n_; ++i) dot += a_(base_n_ + j, i) * u1[i];
    t[j] = b[base_n_ + j] - dot;
  }
  for (std::size_t i = 0; i < k; ++i)
    for (std::size_t j = 0; j < i; ++j) t[i] -= ldl_l_[i][j] * t[j];
  for (std::size_t i = 0; i < k; ++i) t[i] /= ldl_d_[i];
  for (std::size_t ii = k; ii-- > 0;)
    for (std::size_t j = ii + 1; j < k; ++j) t[ii] -= ldl_l_[j][ii] * t[j];

  // x1 = B⁻¹·b1 − Σ_j x2_j · y_j.
  Vector x(base_n_ + k);
  for (std::size_t i = 0; i < base_n_; ++i) {
    double acc = u1[i];
    for (std::size_t j = 0; j < k; ++j) acc -= t[j] * ys_[j][i];
    x[i] = acc;
  }
  for (std::size_t j = 0; j < k; ++j) x[base_n_ + j] = t[j];
  return x;
}

Vector BorderedLdlt::solve(const Vector& b) const {
  if (!ok_) throw std::runtime_error("BorderedLdlt::solve: singular base");
  if (b.size() != size())
    throw std::invalid_argument("BorderedLdlt::solve: size mismatch");
  Vector x = block_solve(b);
  if (appended() == 0) return x;  // bit-identical to the base LU solve.

  // One iterative-refinement sweep against the assembled matrix pulls the
  // incremental solution onto the from-scratch one to ~1e-12.
  Vector r(size());
  for (std::size_t i = 0; i < size(); ++i) {
    double acc = b[i];
    for (std::size_t j = 0; j < size(); ++j) acc -= a_(i, j) * x[j];
    r[i] = acc;
  }
  const Vector dx = block_solve(r);
  for (std::size_t i = 0; i < size(); ++i) x[i] += dx[i];
  return x;
}

Vector BorderedLdlt::inverse_diagonal() const {
  if (!ok_)
    throw std::runtime_error("BorderedLdlt::inverse_diagonal: singular base");
  const std::size_t n = size();
  Vector diag(n);
  Vector e(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) e[j] = (j == i) ? 1.0 : 0.0;
    diag[i] = solve(e)[i];
  }
  return diag;
}

double BorderedLdlt::rcond_estimate() const {
  if (!ok_) return 0.0;
  double lo = lu_->min_abs_pivot();
  double hi = lu_->max_abs_pivot();
  for (double d : ldl_d_) {
    const double p = std::abs(d);
    lo = std::min(lo, p);
    hi = std::max(hi, p);
  }
  // Exact-zero test: hi is a max of absolute values, so == 0 is precise.
  return hi == 0.0 ? 0.0 : lo / hi;  // ace-lint: allow(float-equality)
}

}  // namespace ace::linalg
