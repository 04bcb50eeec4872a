#include "kriging/empirical_variogram.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "util/contract.hpp"
#include "util/errors.hpp"
#include "util/simd.hpp"

namespace ace::kriging {

double L1Distance::operator()(const std::vector<double>& a,
                              const std::vector<double>& b) const {
  if (a.size() != b.size())
    throw std::invalid_argument("l1_distance: dimension mismatch");
  double acc = 0.0;
  // The canonical definition every other path must match.
  // ace-lint: allow(raw-distance-loop)
  for (std::size_t i = 0; i < a.size(); ++i) acc += std::abs(a[i] - b[i]);
  return acc;
}

EmpiricalVariogram::EmpiricalVariogram(L1Distance, double bin_width)
    : bin_width_(bin_width) {
  if (!(bin_width_ > 0.0) || !std::isfinite(bin_width_))
    throw std::invalid_argument(
        "EmpiricalVariogram: bin_width must be finite and > 0");
}

EmpiricalVariogram::EmpiricalVariogram(
    const std::vector<std::vector<double>>& points,
    const std::vector<double>& values, L1Distance distance, double bin_width)
    : EmpiricalVariogram(distance, bin_width) {
  if (points.size() != values.size())
    throw std::invalid_argument("EmpiricalVariogram: size mismatch");
  if (points.size() < 2)
    throw std::invalid_argument("EmpiricalVariogram: need >= 2 points");
  extend(points, values);
}

void EmpiricalVariogram::distances_to_held(const std::vector<double>& point,
                                           std::size_t count,
                                           double* out) const {
  std::vector<const double*> cols(dim_);
  for (std::size_t d = 0; d < dim_; ++d) cols[d] = cols_[d].data();
  util::simd::l1_distances_f64(cols.data(), dim_, point.data(), count, out);
}

void EmpiricalVariogram::extend(
    const std::vector<std::vector<double>>& points,
    const std::vector<double>& values) {
  if (points.size() != values.size())
    throw std::invalid_argument("EmpiricalVariogram::extend: size mismatch");

  // Validate the whole block before folding anything in: one NaN pair
  // would silently poison every bin it touches, and rejecting mid-fold
  // would leave the accumulators half-updated.
  for (std::size_t s = 0; s < points.size(); ++s) {
    if (!std::isfinite(values[s]))
      throw util::NonFiniteError("EmpiricalVariogram::extend: non-finite value");
    for (const double c : points[s])
      if (!std::isfinite(c))
        throw util::NonFiniteError(
            "EmpiricalVariogram::extend: non-finite coordinate");
  }
  if (points.empty()) return;

  const util::LockGuard lock(mutex_);
  const std::size_t held = values_.size();
  const std::size_t dim = held == 0 ? points.front().size() : dim_;
  for (const auto& p : points)
    if (p.size() != dim)
      throw std::invalid_argument(
          "EmpiricalVariogram::extend: dimension mismatch");

  // Stage every accumulator, commit only once the whole block folded: a
  // bad pair distance (only known after the kernel ran) must leave the
  // variogram exactly as it was. The bin array is small, so the copy is
  // cheap next to the O(k·N) pairing.
  std::vector<BinAccum> accum = accum_;
  std::size_t total_pairs = total_pairs_;
  double max_distance = max_distance_;
  double mean = value_mean_;
  double m2 = value_m2_;
  dim_ = dim;
  cols_.resize(dim);
  std::vector<double> dists(held + points.size());
  try {
    for (std::size_t s = 0; s < points.size(); ++s) {
      // Pair the new sample k against every sample already held — the
      // same (j < k) enumeration a full rebuild performs, just arriving in
      // chronological blocks.
      const std::size_t k = values_.size();
      distances_to_held(points[s], k, dists.data());
      for (std::size_t j = 0; j < k; ++j) {
        const double d = dists[j];
        if (!std::isfinite(d))
          throw util::NonFiniteError(
              "EmpiricalVariogram::extend: non-finite pair distance");
        ACE_ENSURE(d >= 0.0, "an L1 sum of absolute differences is >= 0");
        // floor(d / w) for the bin; d / w is non-negative here, where the
        // truncating conversion is exactly floor.
        const double bin = d / bin_width_;
        if (!(bin < static_cast<double>(kMaxBins)))
          throw std::invalid_argument(
              "EmpiricalVariogram::extend: pair distance beyond the bin "
              "range (kMaxBins · bin_width)");
        const auto b = static_cast<std::size_t>(bin);
        if (b >= accum.size()) accum.resize(b + 1);
        max_distance = std::max(max_distance, d);
        BinAccum& slot = accum[b];
        const double diff = values_[j] - values[s];
        slot.sum_sq_diff += diff * diff;
        slot.sum_distance += d;
        ++slot.pairs;
        ++total_pairs;
      }
      for (std::size_t d = 0; d < dim; ++d) cols_[d].push_back(points[s][d]);
      values_.push_back(values[s]);

      // Welford update of the running sample variance (sill estimate).
      const double n = static_cast<double>(values_.size());
      const double delta = values[s] - mean;
      mean += delta / n;
      m2 += delta * (values[s] - mean);
    }
  } catch (...) {
    for (auto& c : cols_) c.resize(held);
    values_.resize(held);
    if (held == 0) {
      dim_ = 0;
      cols_.clear();
    }
    throw;
  }
  accum_ = std::move(accum);
  total_pairs_ = total_pairs;
  max_distance_ = max_distance;
  value_mean_ = mean;
  value_m2_ = m2;
  const double n = static_cast<double>(values_.size());
  value_variance_ = values_.size() > 1 ? m2 / (n - 1.0) : 0.0;
  rebuild_view();
}

void EmpiricalVariogram::rebuild_view() {
  bins_.clear();
  for (const BinAccum& slot : accum_) {
    if (slot.pairs == 0) continue;
    VariogramBin out;
    out.distance = slot.sum_distance / static_cast<double>(slot.pairs);
    out.gamma = slot.sum_sq_diff / (2.0 * static_cast<double>(slot.pairs));
    out.pair_count = slot.pairs;
    ACE_ENSURE(out.gamma >= 0.0 && std::isfinite(out.gamma),
               "empirical semi-variance is a mean of squares");
    bins_.push_back(out);
  }
}

}  // namespace ace::kriging
