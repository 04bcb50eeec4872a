#include "dse/sim_store.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "util/contract.hpp"
#include "util/errors.hpp"

namespace ace::dse {

namespace {

int coordinate_sum(const Config& c) {
  return std::accumulate(c.begin(), c.end(), 0);
}

}  // namespace

void SimulationStore::check_dimensions(const Config& c,
                                       const char* what) const {
  if (!configs_.empty() && c.size() != configs_.front().size())
    throw std::invalid_argument(std::string("SimulationStore::") + what +
                                ": dimension mismatch");
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
  ACE_INVARIANT(configs_.size() == values_.size(),
                "configs/values must grow in lockstep");
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
  const std::size_t dim = configs_.empty() ? 0 : configs_.front().size();
  if (stride < count || values.size() != count ||
      columns.size() != dim * stride)
    throw std::invalid_argument(
        "SimulationStore::gather_columns: buffer size mismatch");
  // values_.at checks every index before the unchecked row reads below.
  for (std::size_t k = 0; k < count; ++k)
    values[k] = values_.at(n.indices[k]);
  for (std::size_t k = 0; k < count; ++k) {
    const Config& row = configs_[n.indices[k]];
    for (std::size_t d = 0; d < dim; ++d)
      columns[d * stride + k] = static_cast<double>(row[d]);
  }
}

}  // namespace ace::dse
