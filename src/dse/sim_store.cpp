#include "dse/sim_store.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "util/contract.hpp"
#include "util/errors.hpp"
#include "util/simd.hpp"

namespace ace::dse {

namespace {

int coordinate_sum(const Config& c) {
  return std::accumulate(c.begin(), c.end(), 0);
}

/// Points per blocked-scan step: 4 KiB of i32 distances — comfortably
/// inside L1d alongside one block of one column.
constexpr std::size_t kScanBlock = 1024;

}  // namespace

void SimulationStore::check_dimensions(const Config& c,
                                       const char* what) const {
  if (!configs_.empty() && c.size() != configs_.front().size())
    throw std::invalid_argument(std::string("SimulationStore::") + what +
                                ": dimension mismatch");
}

std::size_t SimulationStore::band_population(int lo, int hi) const {
  // An inverted band (lo > hi) would make lower_bound(lo) sit *past*
  // upper_bound(hi) and the walk below would run off the map — guard it.
  if (lo > hi) return 0;
  std::size_t pop = 0;
  const auto first = sum_buckets_.lower_bound(lo);
  const auto last = sum_buckets_.upper_bound(hi);
  for (auto it = first; it != last; ++it) pop += it->second.size();
  return pop;
}

std::size_t SimulationStore::add(Config config, double value) {
  if (!std::isfinite(value))
    throw util::NonFiniteError(
        "SimulationStore::add: non-finite value for " + to_string(config));
  const util::LockGuard lock(mutex_);
  check_dimensions(config, "add");
  // A clean simulation supersedes an earlier fault: lift any active
  // quarantine. quarantine_log_ keeps the lifted entry for audit.
  quarantine_.erase(config);
  if (const auto it = exact_.find(config); it != exact_.end()) {
    values_[it->second] = value;
    return it->second;
  }
  const std::size_t index = configs_.size();
  const int sum = coordinate_sum(config);
  configs_.push_back(std::move(config));
  values_.push_back(value);
  exact_.emplace(configs_.back(), index);
  sum_buckets_[sum].push_back(index);
  const Config& stored = configs_.back();
  if (soa_.size() != stored.size()) soa_.resize(stored.size());
  for (std::size_t d = 0; d < stored.size(); ++d) soa_[d].push_back(stored[d]);
  ACE_INVARIANT(configs_.size() == values_.size(),
                "configs/values must grow in lockstep");
  ACE_INVARIANT(soa_.empty() || soa_.front().size() == configs_.size(),
                "columnar mirror must grow in lockstep with configs");
  return index;
}

std::optional<std::size_t> SimulationStore::find(const Config& config) const {
  const util::LockGuard lock(mutex_);
  const auto it = exact_.find(config);
  if (it == exact_.end()) return std::nullopt;
  return it->second;
}

bool SimulationStore::quarantine(Config config, FaultCode code) {
  const util::LockGuard lock(mutex_);
  check_dimensions(config, "quarantine");
  if (quarantine_.contains(config)) return false;
  quarantine_.emplace(config, code);
  quarantine_log_.emplace_back(std::move(config), code);
  return true;
}

std::optional<FaultCode> SimulationStore::quarantined(
    const Config& config) const {
  const util::LockGuard lock(mutex_);
  const auto it = quarantine_.find(config);
  if (it == quarantine_.end()) return std::nullopt;
  return it->second;
}

Neighborhood SimulationStore::neighbors_within(const Config& query,
                                               int radius) const {
  ACE_REQUIRE(radius >= 0,
              "neighbors_within: negative radius is a caller sign bug");
  Neighborhood n;
  // With contracts compiled out (Release) a negative radius must degrade
  // to an empty result, not hand the bucket walk an inverted iterator
  // range (lower_bound past upper_bound — a runaway loop).
  if (radius < 0) return n;
  const util::LockGuard lock(mutex_);
  if (configs_.empty()) return n;
  check_dimensions(query, "neighbors_within");
  const int qsum = coordinate_sum(query);
  // When the coordinate-sum band holds most of the store, the bucket walk
  // degenerates into a scattered full scan; the contiguous blocked scan
  // over the columnar mirror streams the same points faster and yields
  // the identical neighbourhood (integer L1 is exact on both paths).
  if (2 * band_population(qsum - radius, qsum + radius) >= configs_.size()) {
    const std::size_t dim = query.size();
    const std::size_t total = configs_.size();
    std::vector<const int*> cols(dim);
    std::array<int, kScanBlock> dists;
    for (std::size_t base = 0; base < total; base += kScanBlock) {
      const std::size_t count = std::min(kScanBlock, total - base);
      for (std::size_t d = 0; d < dim; ++d) cols[d] = soa_[d].data() + base;
      util::simd::l1_distances_i32(cols.data(), dim, query.data(), count,
                                   dists.data());
      for (std::size_t i = 0; i < count; ++i)
        if (dists[i] <= radius) n.indices.push_back(base + i);
    }
    return n;  // Blocked scan visits indices in order: already ascending.
  }
  const auto first = sum_buckets_.lower_bound(qsum - radius);
  const auto last = sum_buckets_.upper_bound(qsum + radius);
  for (auto it = first; it != last; ++it)
    for (const std::size_t i : it->second)
      if (l1_distance(configs_[i], query) <= radius) n.indices.push_back(i);
  // Buckets are ordered by coordinate sum, not insertion: restore the
  // ascending index order the linear scan produced.
  std::sort(n.indices.begin(), n.indices.end());
  return n;
}

Neighborhood SimulationStore::neighbors_within_linear(const Config& query,
                                                      int radius) const {
  ACE_REQUIRE(radius >= 0,
              "neighbors_within_linear: negative radius is a caller sign bug");
  Neighborhood n;
  const util::LockGuard lock(mutex_);
  if (configs_.empty()) return n;
  check_dimensions(query, "neighbors_within_linear");
  for (std::size_t i = 0; i < configs_.size(); ++i)
    if (l1_distance(configs_[i], query) <= radius) n.indices.push_back(i);
  return n;
}

void SimulationStore::gather(const Neighborhood& n,
                             std::vector<std::vector<double>>& points,
                             std::vector<double>& values) const {
  points.clear();
  values.clear();
  points.reserve(n.indices.size());
  values.reserve(n.indices.size());
  const util::LockGuard lock(mutex_);
  for (std::size_t i : n.indices) {
    points.push_back(to_real(configs_.at(i)));
    values.push_back(values_.at(i));
  }
}

void SimulationStore::gather_columns(const Neighborhood& n,
                                     std::span<double> columns,
                                     std::size_t stride,
                                     std::span<double> values) const {
  const std::size_t count = n.indices.size();
  const util::LockGuard lock(mutex_);
  if (stride < count || values.size() != count ||
      columns.size() != soa_.size() * stride)
    throw std::invalid_argument(
        "SimulationStore::gather_columns: buffer size mismatch");
  for (std::size_t k = 0; k < count; ++k)
    values[k] = values_.at(n.indices[k]);
  for (std::size_t d = 0; d < soa_.size(); ++d) {
    const int* column = soa_[d].data();
    double* out = columns.data() + d * stride;
    for (std::size_t k = 0; k < count; ++k)
      out[k] = static_cast<double>(column[n.indices[k]]);
  }
}

}  // namespace ace::dse
