// Property tests for the SIMD/SoA layer (DESIGN.md §10).
//
// The whole layer rests on one contract: the vector kernels and the blocked
// SoA store scans built on them are *identical* to their scalar / per-item
// counterparts — not close, identical. These tests pin that contract from
// two angles:
//   1. dispatching kernels vs their _scalar twins, element-exact;
//   2. SoA-mirror store scans vs the AoS linear scans, index-identical,
//      across random stores including post-quarantine and
//      duplicate-update states, with the runtime toggle both ways.
#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <vector>

#include "dse/config.hpp"
#include "dse/sim_store.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"

namespace {

namespace d = ace::dse;
namespace simd = ace::util::simd;

/// Restores the SIMD runtime toggle on scope exit so one test cannot
/// leak a disabled backend into the rest of the suite.
class SimdToggleGuard {
 public:
  SimdToggleGuard() : saved_(simd::enabled()) {}
  ~SimdToggleGuard() { simd::set_enabled(saved_); }

 private:
  bool saved_;
};

// --- 1. kernels vs scalar twins ------------------------------------------

TEST(SimdKernels, DispatchMatchesScalarTwinExactly) {
  SimdToggleGuard guard;
  simd::set_enabled(true);
  ace::util::Rng rng(11);
  // Odd counts and dims exercise the vector-width tail on every kernel.
  for (const std::size_t count : {1u, 4u, 7u, 33u, 130u}) {
    for (const std::size_t dim : {1u, 3u, 10u}) {
      std::vector<std::vector<int>> icols(dim, std::vector<int>(count));
      std::vector<std::vector<double>> fcols(dim,
                                             std::vector<double>(count));
      for (std::size_t c = 0; c < dim; ++c)
        for (std::size_t i = 0; i < count; ++i) {
          icols[c][i] = rng.uniform_int(-20, 20);
          fcols[c][i] = rng.uniform(-8.0, 8.0);
        }
      std::vector<const int*> iptrs(dim);
      std::vector<const double*> fptrs(dim);
      for (std::size_t c = 0; c < dim; ++c) {
        iptrs[c] = icols[c].data();
        fptrs[c] = fcols[c].data();
      }
      std::vector<int> iquery(dim);
      std::vector<double> fquery(dim);
      for (std::size_t c = 0; c < dim; ++c) {
        iquery[c] = rng.uniform_int(-20, 20);
        fquery[c] = rng.uniform(-8.0, 8.0);
      }

      std::vector<int> l1i(count), l1i_ref(count);
      simd::l1_distances_i32(iptrs.data(), dim, iquery.data(), count,
                             l1i.data());
      simd::l1_distances_i32_scalar(iptrs.data(), dim, iquery.data(), count,
                                    l1i_ref.data());
      EXPECT_EQ(l1i, l1i_ref) << "count=" << count << " dim=" << dim;

      std::vector<double> l1f(count), l1f_ref(count);
      simd::l1_distances_f64(fptrs.data(), dim, fquery.data(), count,
                             l1f.data());
      simd::l1_distances_f64_scalar(fptrs.data(), dim, fquery.data(), count,
                                    l1f_ref.data());
      EXPECT_EQ(l1f, l1f_ref) << "count=" << count << " dim=" << dim;
    }
  }
}

TEST(SimdKernels, DisabledToggleFallsBackToScalar) {
  SimdToggleGuard guard;
  ace::util::Rng rng(12);
  constexpr std::size_t dim = 5, count = 19;
  std::vector<std::vector<int>> cols(dim, std::vector<int>(count));
  for (auto& c : cols)
    for (auto& x : c) x = rng.uniform_int(0, 16);
  std::vector<const int*> ptrs(dim);
  for (std::size_t c = 0; c < dim; ++c) ptrs[c] = cols[c].data();
  const std::vector<int> query(dim, 8);

  std::vector<int> on(count), off(count);
  simd::set_enabled(true);
  simd::l1_distances_i32(ptrs.data(), dim, query.data(), count, on.data());
  simd::set_enabled(false);
  simd::l1_distances_i32(ptrs.data(), dim, query.data(), count, off.data());
  EXPECT_EQ(on, off);
}

// --- 2. SoA store scans vs AoS linear scans ------------------------------

/// A store driven through the full mutation surface: adds, duplicate
/// updates (value refresh, no new row), quarantines, and quarantine lifts.
void build_exercised_store(d::SimulationStore& store,
                           std::vector<d::Config>& configs,
                           unsigned seed, std::size_t n, std::size_t dim,
                           int hi) {
  ace::util::Rng rng(seed);
  while (configs.size() < n) {
    d::Config c(dim);
    for (auto& v : c) v = rng.uniform_int(0, hi);
    const bool dup = store.find(c).has_value();
    if (!dup && rng.uniform() < 0.15) {
      // Quarantine first; a later clean add must lift it and still index
      // the point correctly in both layouts.
      store.quarantine(c, d::FaultCode::kTimeout);
      if (rng.uniform() < 0.5) continue;  // Some stay quarantined unadded.
    }
    const std::size_t idx = store.add(d::Config(c), rng.uniform(-60.0, -20.0));
    if (dup) {
      EXPECT_EQ(configs[idx], c);  // Update-in-place, not a new row.
      continue;
    }
    configs.push_back(std::move(c));
  }
  // A few more duplicate updates on settled rows.
  for (int k = 0; k < 10 && !configs.empty(); ++k) {
    const auto i = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<int>(configs.size()) - 1));
    EXPECT_EQ(store.add(d::Config(configs[i]), rng.uniform(-60.0, -20.0)), i);
  }
  ASSERT_EQ(store.size(), configs.size());
}

TEST(SimdStore, BlockedScansMatchLinearScansIndexIdentically) {
  SimdToggleGuard guard;
  for (const bool simd_on : {true, false}) {
    simd::set_enabled(simd_on);
    for (const unsigned seed : {21u, 22u, 23u}) {
      d::SimulationStore store;
      std::vector<d::Config> configs;
      // Small coordinate range → dense duplicates; dim 4 keeps the
      // brute-force reference cheap.
      build_exercised_store(store, configs, seed, 120, 4, 6);

      ace::util::Rng rng(seed + 100);
      for (int q = 0; q < 20; ++q) {
        d::Config query(4);
        for (auto& v : query) v = rng.uniform_int(0, 6);
        // Radii spanning the bucket walk (tight) and the blocked SoA scan
        // (band covers the store).
        for (const int radius : {0, 1, 2, 5, 10, 24}) {
          const auto fast = store.neighbors_within(query, radius);
          const auto ref = store.neighbors_within_linear(query, radius);
          EXPECT_EQ(fast.indices, ref.indices)
              << "seed=" << seed << " radius=" << radius
              << " simd=" << simd_on;
        }
      }
    }
  }
}

TEST(SimdStore, LinearScansMatchBruteForceDistances) {
  // Anchors the linear scan itself to the distance definition, so
  // the index-identity test above cannot pass by both paths being wrong.
  d::SimulationStore store;
  std::vector<d::Config> configs;
  build_exercised_store(store, configs, 31, 80, 4, 6);
  ace::util::Rng rng(131);
  for (int q = 0; q < 10; ++q) {
    d::Config query(4);
    for (auto& v : query) v = rng.uniform_int(0, 6);
    for (const int radius : {0, 2, 7}) {
      std::vector<std::size_t> expected;
      for (std::size_t i = 0; i < configs.size(); ++i)
        if (d::l1_distance(configs[i], query) <= radius)
          expected.push_back(i);
      EXPECT_EQ(store.neighbors_within_linear(query, radius).indices,
                expected);
    }
  }
}

}  // namespace
