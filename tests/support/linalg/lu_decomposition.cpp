#include "linalg/lu_decomposition.hpp"

#include <stdexcept>
#include <utility>

namespace ace::linalg {

LuDecomposition::LuDecomposition(Matrix a) : lu_(std::move(a)) {
  if (!lu_.square())
    throw std::invalid_argument("LuDecomposition: matrix must be square");
  perm_.resize(lu_.rows());
  singular_ = !lu_factor_inplace(lu_.data(), lu_.rows(), perm_.data());
}

Vector LuDecomposition::solve(const Vector& b) const {
  if (singular_)
    throw std::runtime_error("LuDecomposition::solve: singular matrix");
  const std::size_t n = size();
  if (b.size() != n)
    throw std::invalid_argument("LuDecomposition::solve: size mismatch");
  Vector x(n);
  lu_solve_inplace(lu_.data(), n, perm_.data(), b.data().data(),
                   x.data().data());
  return x;
}

Vector LuDecomposition::inverse_diagonal() const {
  if (singular_)
    throw std::runtime_error(
        "LuDecomposition::inverse_diagonal: singular matrix");
  const std::size_t n = size();
  Vector diag(n);
  Vector e(n);
  Vector x(n);
  lu_inverse_diagonal(lu_.data(), n, perm_.data(), e.data().data(),
                      x.data().data(), diag.data().data());
  return diag;
}

double LuDecomposition::rcond_estimate() const {
  if (singular_) return 0.0;
  return lu_rcond_estimate(lu_.data(), size());
}

}  // namespace ace::linalg
