#include "dse/config.hpp"

#include <cstdlib>
#include <sstream>
#include <stdexcept>

namespace ace::dse {

int l1_distance(const Config& a, const Config& b) {
  if (a.size() != b.size())
    throw std::invalid_argument("l1_distance: size mismatch");
  int acc = 0;
  // The canonical definition every other path must match.
  // ace-lint: allow(raw-distance-loop)
  for (std::size_t i = 0; i < a.size(); ++i) acc += std::abs(a[i] - b[i]);
  return acc;
}

std::vector<double> to_real(const Config& c) {
  std::vector<double> out(c.size());
  for (std::size_t i = 0; i < c.size(); ++i) out[i] = c[i];
  return out;
}

std::string to_string(const Config& c) {
  std::ostringstream ss;
  ss << "(";
  for (std::size_t i = 0; i < c.size(); ++i) {
    if (i > 0) ss << ", ";
    ss << c[i];
  }
  ss << ")";
  return ss.str();
}

std::size_t ConfigHash::operator()(const Config& c) const {
  std::size_t h = 1469598103934665603ULL;  // FNV-1a offset basis.
  for (int v : c) {
    h ^= static_cast<std::size_t>(static_cast<unsigned int>(v));
    h *= 1099511628211ULL;
  }
  return h;
}

}  // namespace ace::dse
