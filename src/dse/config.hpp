// Approximation-source configurations (the paper's vectors e / w).
//
// A configuration is a point on an Nv-dimensional integer lattice: word
// lengths for the fixed-point benchmarks, error-power levels for the
// sensitivity benchmark. Distances between configurations are L1, as in
// Algorithms 1-2 (line 9: dCur = ||w − w_sim||₁).
#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

namespace ace::dse {

/// One configuration of the approximation sources.
using Config = std::vector<int>;

/// L1 distance between two configurations. Throws on size mismatch.
int l1_distance(const Config& a, const Config& b);

/// Lattice point as doubles (kriging operates on real coordinates).
std::vector<double> to_real(const Config& c);

/// "(a, b, c)" for logs and test diagnostics.
std::string to_string(const Config& c);

/// Hash functor so configurations can key unordered memo caches.
struct ConfigHash {
  std::size_t operator()(const Config& c) const;
};

}  // namespace ace::dse
