// Property tests for the SIMD kernel and the store's neighbour search
// (DESIGN.md §10).
//
// Both rest on one contract: the fast path is *identical* to its plain
// counterpart — not close, identical. These tests pin that contract from
// two angles:
//   1. the dispatching f64 kernel vs its _scalar twin, element-exact, with
//      the runtime toggle both ways;
//   2. the coordinate-sum bucket walk vs the linear scan, index-identical,
//      across random stores including post-quarantine and
//      duplicate-update states.
#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <utility>
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

// --- 1. kernel vs scalar twin ---------------------------------------------

TEST(SimdKernels, DispatchMatchesScalarTwinExactly) {
  SimdToggleGuard guard;
  simd::set_enabled(true);
  ace::util::Rng rng(11);
  // Odd counts and dims exercise the vector-width tail.
  for (const std::size_t count : {1u, 4u, 7u, 33u, 130u}) {
    for (const std::size_t dim : {1u, 3u, 10u}) {
      std::vector<std::vector<double>> fcols(dim,
                                             std::vector<double>(count));
      for (std::size_t c = 0; c < dim; ++c)
        for (std::size_t i = 0; i < count; ++i)
          fcols[c][i] = rng.uniform(-8.0, 8.0);
      std::vector<const double*> fptrs(dim);
      for (std::size_t c = 0; c < dim; ++c) fptrs[c] = fcols[c].data();
      std::vector<double> fquery(dim);
      for (std::size_t c = 0; c < dim; ++c)
        fquery[c] = rng.uniform(-8.0, 8.0);

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
  std::vector<std::vector<double>> cols(dim, std::vector<double>(count));
  for (auto& c : cols)
    for (auto& x : c) x = rng.uniform(0.0, 16.0);
  std::vector<const double*> ptrs(dim);
  for (std::size_t c = 0; c < dim; ++c) ptrs[c] = cols[c].data();
  const std::vector<double> query(dim, 8.0);

  std::vector<double> on(count), off(count), ref(count);
  simd::set_enabled(true);
  simd::l1_distances_f64(ptrs.data(), dim, query.data(), count, on.data());
  simd::set_enabled(false);
  simd::l1_distances_f64(ptrs.data(), dim, query.data(), count, off.data());
  simd::l1_distances_f64_scalar(ptrs.data(), dim, query.data(), count,
                                ref.data());
  EXPECT_EQ(on, off);
  EXPECT_EQ(off, ref);
}

// --- 2. bucket walk vs linear scan ---------------------------------------

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
      // the point correctly in both indexes.
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

TEST(SimdStore, BucketWalkMatchesLinearScanIndexIdentically) {
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
      // Radii from a tight band of buckets to a band that covers the
      // whole store.
      for (const int radius : {0, 1, 2, 5, 10, 24}) {
        const auto fast = store.neighbors_within(query, radius);
        const auto ref = store.neighbors_within_linear(query, radius);
        EXPECT_EQ(fast.indices, ref.indices)
            << "seed=" << seed << " radius=" << radius;
      }
    }
  }
}

// Negative coordinates put buckets below sum 0, and queries outside the
// stored coordinate-sum range start the walk off either end of the bucket
// map; an empty store answers nothing at any radius.
TEST(SimdStore, BucketWalkMatchesLinearScanOffTheStoredSumRange) {
  d::SimulationStore empty;
  EXPECT_TRUE(empty.neighbors_within({0, 0, 0}, 50).indices.empty());

  ace::util::Rng rng(41);
  d::SimulationStore store;
  while (store.size() < 60) {
    d::Config c(3);
    for (auto& v : c) v = rng.uniform_int(-8, 4);
    store.add(std::move(c), rng.uniform(-60.0, -20.0));
  }
  const std::vector<d::Config> queries = {
      {-8, -8, -8}, {-20, -20, -20}, {4, 4, 4}, {15, 15, 15}, {-3, 0, 2}};
  for (const auto& query : queries)
    for (const int radius : {0, 1, 3, 8, 20, 40, 80}) {
      const auto fast = store.neighbors_within(query, radius);
      const auto ref = store.neighbors_within_linear(query, radius);
      EXPECT_EQ(fast.indices, ref.indices)
          << "query=(" << query[0] << "," << query[1] << "," << query[2]
          << ") radius=" << radius;
    }
  // The far corner reaches the whole store only once the radius spans it.
  EXPECT_TRUE(store.neighbors_within({15, 15, 15}, 20).indices.empty());
  EXPECT_EQ(store.neighbors_within({15, 15, 15}, 80).count(), store.size());
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
