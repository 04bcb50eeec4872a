#include "fixedpoint/range_tracker.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "fixedpoint/format.hpp"

namespace ace::fixedpoint {

RangeTracker::RangeTracker(std::size_t site_count) : max_abs_(site_count, 0.0) {
  if (site_count == 0)
    throw std::invalid_argument("RangeTracker: need at least one site");
}

double RangeTracker::observe(std::size_t site, double value) {
  max_abs_.at(site) = std::max(max_abs_.at(site), std::abs(value));
  return value;
}

double RangeTracker::max_abs(std::size_t site) const {
  return max_abs_.at(site);
}

int RangeTracker::integer_bits(std::size_t site, int margin_bits) const {
  return std::clamp(integer_bits_for(max_abs_.at(site)) + margin_bits, 0, 48);
}

std::vector<int> RangeTracker::all_integer_bits(int margin_bits) const {
  std::vector<int> out(max_abs_.size());
  for (std::size_t i = 0; i < out.size(); ++i)
    out[i] = integer_bits(i, margin_bits);
  return out;
}

}  // namespace ace::fixedpoint
