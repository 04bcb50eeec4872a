// FactorCache and its KrigingPolicy wiring: the cache must change the
// amount of factorization work, never the optimizer-visible behaviour.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "dse/factor_cache.hpp"
#include "dse/kriging_policy.hpp"
#include "dse/min_plus_one.hpp"
#include "dse/scheduler.hpp"
#include "kriging/variogram_model.hpp"

namespace {

namespace d = ace::dse;
namespace k = ace::kriging;

/// Lattice support universe: point i = (i, 2i mod 7) with a smooth value.
struct Universe {
  std::vector<std::vector<double>> points;
  std::vector<double> values;

  explicit Universe(std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      const double x = static_cast<double>(i);
      const double y = static_cast<double>((2 * i) % 7);
      points.push_back({x, y});
      values.push_back(0.3 * x + 0.1 * y * y);
    }
  }

  std::vector<std::vector<double>> gather_points(
      const std::vector<std::size_t>& idx) const {
    std::vector<std::vector<double>> out;
    for (std::size_t i : idx) out.push_back(points[i]);
    return out;
  }
  std::vector<double> gather_values(
      const std::vector<std::size_t>& idx) const {
    std::vector<double> out;
    for (std::size_t i : idx) out.push_back(values[i]);
    return out;
  }
};

d::FactorCache::Pin acquire(d::FactorCache& cache, const Universe& u,
                            const std::vector<std::size_t>& idx,
                            const k::VariogramModel& model,
                            d::FactorAcquire& how,
                            std::uint64_t generation = 0,
                            double noise_nugget = 0.0) {
  return cache.acquire(idx, u.gather_points(idx), u.gather_values(idx),
                       model, k::l1_distance, noise_nugget, generation, how);
}

TEST(FactorCache, HitExtendFreshLifecycle) {
  const k::SphericalVariogram model(0.1, 2.0, 8.0);
  const Universe u(16);
  d::FactorCache cache(4);
  d::FactorAcquire how = d::FactorAcquire::kHit;

  k::KrigingSystem* first = nullptr;
  {
    const d::FactorCache::Pin pin = acquire(cache, u, {0, 1, 2}, model, how);
    ASSERT_TRUE(pin);
    first = pin.get();
    EXPECT_EQ(how, d::FactorAcquire::kFresh);
    EXPECT_EQ(cache.size(), 1u);
  }

  // Same index set (any order): exact hit on the same system object.
  {
    const d::FactorCache::Pin again =
        acquire(cache, u, {2, 0, 1}, model, how);
    EXPECT_EQ(how, d::FactorAcquire::kHit);
    EXPECT_EQ(again.get(), first);
  }

  // Superset: the entry is extended in place, not rebuilt.
  {
    const d::FactorCache::Pin extended =
        acquire(cache, u, {0, 1, 2, 3}, model, how);
    EXPECT_EQ(how, d::FactorAcquire::kExtend);
    EXPECT_EQ(extended.get(), first);
    EXPECT_EQ(extended->support_size(), 4u);
    EXPECT_EQ(cache.size(), 1u);
  }

  // Disjoint set: fresh entry.
  (void)acquire(cache, u, {10, 11, 12}, model, how);
  EXPECT_EQ(how, d::FactorAcquire::kFresh);
  EXPECT_EQ(cache.size(), 2u);

  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  (void)acquire(cache, u, {0, 1, 2}, model, how);
  EXPECT_EQ(how, d::FactorAcquire::kFresh);
}

TEST(FactorCache, ExtendedSystemAnswersLikeScratch) {
  const k::SphericalVariogram model(0.1, 2.0, 8.0);
  const Universe u(16);
  d::FactorCache cache(4);
  d::FactorAcquire how = d::FactorAcquire::kHit;

  (void)acquire(cache, u, {0, 1, 2, 3}, model, how);
  // Shrink-and-grow: drop 3, add 4 (one downdate + one append — within
  // the edit-cost limit; the dropped slot is an appended, removable row).
  const d::FactorCache::Pin edited =
      acquire(cache, u, {0, 1, 2, 4}, model, how);
  ASSERT_EQ(how, d::FactorAcquire::kExtend);

  const std::vector<std::size_t> idx = {0, 1, 2, 4};
  k::KrigingSystem scratch({k::SystemKind::kOrdinary}, u.gather_points(idx),
                           u.gather_values(idx), model);
  const std::vector<double> q = {2.5, 3.0};
  const auto a = edited->query(q);
  const auto b = scratch.query(q);
  ASSERT_TRUE(a && b);
  EXPECT_NEAR(a->estimate, b->estimate, 1e-10);
  EXPECT_NEAR(a->variance, b->variance, 1e-10);
}

TEST(FactorCache, EvictsLeastRecentlyUsedAtCapacity) {
  const k::SphericalVariogram model(0.1, 2.0, 8.0);
  const Universe u(16);
  d::FactorCache cache(2);
  d::FactorAcquire how = d::FactorAcquire::kHit;

  (void)acquire(cache, u, {0, 1, 2}, model, how);    // A
  (void)acquire(cache, u, {8, 9, 10}, model, how);   // B
  (void)acquire(cache, u, {0, 1, 2}, model, how);    // touch A
  EXPECT_EQ(how, d::FactorAcquire::kHit);
  (void)acquire(cache, u, {12, 13, 14}, model, how); // C evicts B
  EXPECT_EQ(cache.size(), 2u);
  (void)acquire(cache, u, {8, 9, 10}, model, how);   // B gone -> fresh
  EXPECT_EQ(how, d::FactorAcquire::kFresh);
}

TEST(FactorCache, CapacityZeroNeverCaches) {
  const k::SphericalVariogram model(0.1, 2.0, 8.0);
  const Universe u(8);
  d::FactorCache cache(0);
  d::FactorAcquire how = d::FactorAcquire::kHit;
  ASSERT_TRUE(acquire(cache, u, {0, 1, 2}, model, how));
  EXPECT_EQ(how, d::FactorAcquire::kFresh);
  EXPECT_EQ(cache.size(), 0u);
  ASSERT_TRUE(acquire(cache, u, {0, 1, 2}, model, how));
  EXPECT_EQ(how, d::FactorAcquire::kFresh);
}

// Regression (ISSUE 8): acquire() used to return a raw KrigingSystem*
// that the next acquire() could invalidate by LRU-evicting the entry (or
// reallocating entries_). Two interleaved acquire/solve sequences at
// capacity 1 turned into a use-after-free. The Pin handle must keep both
// systems alive and answering correctly, with eviction deferred.
TEST(FactorCache, PinSurvivesInterleavedAcquiresAtCapacityOne) {
  const k::SphericalVariogram model(0.1, 2.0, 8.0);
  const Universe u(16);
  d::FactorCache cache(1);
  d::FactorAcquire how = d::FactorAcquire::kHit;

  const std::vector<std::size_t> ia = {0, 1, 2};
  const std::vector<std::size_t> ib = {8, 9, 10};
  const d::FactorCache::Pin a = acquire(cache, u, ia, model, how);
  ASSERT_TRUE(a);
  // Disjoint set at capacity 1: without pinning this evicts A's entry
  // and frees the system `a` points at.
  const d::FactorCache::Pin b = acquire(cache, u, ib, model, how);
  ASSERT_TRUE(b);
  EXPECT_EQ(how, d::FactorAcquire::kFresh);
  EXPECT_NE(a.get(), b.get());

  // Interleaved solves through both pins still match scratch systems.
  const std::vector<double> q = {1.5, 2.0};
  k::KrigingSystem sa({k::SystemKind::kOrdinary}, u.gather_points(ia),
                      u.gather_values(ia), model);
  k::KrigingSystem sb({k::SystemKind::kOrdinary}, u.gather_points(ib),
                      u.gather_values(ib), model);
  const auto ra = a->query(q);
  const auto rb = b->query(q);
  const auto ea = sa.query(q);
  const auto eb = sb.query(q);
  ASSERT_TRUE(ra && rb && ea && eb);
  EXPECT_NEAR(ra->estimate, ea->estimate, 1e-10);
  EXPECT_NEAR(rb->estimate, eb->estimate, 1e-10);

  // Deferred eviction: both entries resident while pinned, trimmed back
  // to capacity once the pins are gone and a new acquire runs.
  EXPECT_EQ(cache.size(), 2u);
}

// Companion: once the pins drop, the next acquire() trims back to
// capacity and the cache behaves like a plain LRU again.
TEST(FactorCache, DeferredEvictionTrimsAfterPinsRelease) {
  const k::SphericalVariogram model(0.1, 2.0, 8.0);
  const Universe u(16);
  d::FactorCache cache(1);
  d::FactorAcquire how = d::FactorAcquire::kHit;
  {
    const d::FactorCache::Pin a = acquire(cache, u, {0, 1, 2}, model, how);
    const d::FactorCache::Pin b = acquire(cache, u, {8, 9, 10}, model, how);
    EXPECT_EQ(cache.size(), 2u);
  }
  (void)acquire(cache, u, {12, 13, 14}, model, how);
  EXPECT_EQ(how, d::FactorAcquire::kFresh);
  EXPECT_EQ(cache.size(), 1u);
}

// Regression (ISSUE 8): an exact index-set hit must not resurrect a
// system factored under a different variogram model. Entries are stamped
// with the caller's model generation; a query under a newer generation
// builds fresh and answers with the new model's numbers.
TEST(FactorCache, GenerationStampPreventsCrossModelHits) {
  const k::SphericalVariogram old_model(0.1, 2.0, 8.0);
  const k::SphericalVariogram new_model(0.5, 9.0, 3.0);
  const Universe u(16);
  d::FactorCache cache(4);
  d::FactorAcquire how = d::FactorAcquire::kHit;

  const std::vector<std::size_t> idx = {0, 1, 2, 3};
  (void)acquire(cache, u, idx, old_model, how, /*generation=*/0);
  ASSERT_EQ(how, d::FactorAcquire::kFresh);

  // Same index set, newer generation: must NOT hit (or edit) the stale
  // entry, and the answer must come from the new model.
  const d::FactorCache::Pin fresh =
      acquire(cache, u, idx, new_model, how, /*generation=*/1);
  EXPECT_EQ(how, d::FactorAcquire::kFresh);
  k::KrigingSystem scratch({k::SystemKind::kOrdinary}, u.gather_points(idx),
                           u.gather_values(idx), new_model);
  const std::vector<double> q = {1.5, 2.0};
  const auto got = fresh->query(q);
  const auto want = scratch.query(q);
  ASSERT_TRUE(got && want);
  EXPECT_NEAR(got->estimate, want->estimate, 1e-10);
  EXPECT_NEAR(got->variance, want->variance, 1e-10);

  // The stale-generation entry was dropped during trim, not kept around.
  EXPECT_EQ(cache.size(), 1u);
}

// The nugget is part of the cache key: a factorization assembled with a
// different noise_nugget has a different (shifted) diagonal, so reusing
// it across nugget settings would answer from the wrong system.
TEST(FactorCache, NuggetIsPartOfTheCacheKey) {
  const k::SphericalVariogram model(0.1, 2.0, 8.0);
  const Universe u(16);
  d::FactorCache cache(4);
  d::FactorAcquire how = d::FactorAcquire::kHit;

  const std::vector<std::size_t> idx = {0, 1, 2, 3};
  (void)acquire(cache, u, idx, model, how, /*generation=*/0,
                /*noise_nugget=*/0.0);
  ASSERT_EQ(how, d::FactorAcquire::kFresh);

  const d::FactorCache::Pin nuggeted = acquire(
      cache, u, idx, model, how, /*generation=*/0, /*noise_nugget=*/0.25);
  EXPECT_EQ(how, d::FactorAcquire::kFresh);

  // Same nugget again: now it hits.
  (void)acquire(cache, u, idx, model, how, /*generation=*/0,
                /*noise_nugget=*/0.25);
  EXPECT_EQ(how, d::FactorAcquire::kHit);

  // And the nuggeted entry answers like a scratch nuggeted system.
  k::SystemSpec spec;
  spec.noise_nugget = 0.25;
  k::KrigingSystem scratch(spec, u.gather_points(idx), u.gather_values(idx),
                           model);
  const std::vector<double> q = {1.5, 2.0};
  const auto got = nuggeted->query(q);
  const auto want = scratch.query(q);
  ASSERT_TRUE(got && want);
  EXPECT_NEAR(got->estimate, want->estimate, 1e-10);
  EXPECT_NEAR(got->variance, want->variance, 1e-10);
}

// A pinned entry must not be edited by an overlapping acquire(): the
// live pin expects the support it acquired. The overlap path builds
// fresh instead.
TEST(FactorCache, PinnedEntryIsNeverEditedByOverlap) {
  const k::SphericalVariogram model(0.1, 2.0, 8.0);
  const Universe u(16);
  d::FactorCache cache(4);
  d::FactorAcquire how = d::FactorAcquire::kHit;

  const d::FactorCache::Pin held = acquire(cache, u, {0, 1, 2, 3}, model, how);
  ASSERT_TRUE(held);
  const std::size_t held_support = held->support_size();

  // Overlapping query that would normally edit the held entry in place.
  const d::FactorCache::Pin other =
      acquire(cache, u, {0, 1, 2, 4}, model, how);
  EXPECT_EQ(how, d::FactorAcquire::kFresh);
  EXPECT_NE(other.get(), held.get());
  EXPECT_EQ(held->support_size(), held_support);
}

/// Deterministic smooth simulator over the word-length lattice.
double smooth_sim(const d::Config& w) {
  double acc = 0.0;
  for (std::size_t i = 0; i < w.size(); ++i)
    acc += (1.0 + 0.1 * static_cast<double>(i)) * static_cast<double>(w[i]);
  return acc;
}

/// Run min+1 through a policy with the given cache capacity.
std::pair<d::MinPlusOneResult, d::PolicyStats> run_min_plus_one(
    std::size_t cache_capacity) {
  d::PolicyOptions popt;
  popt.factor_cache_capacity = cache_capacity;
  d::KrigingPolicy policy(popt);
  d::MinPlusOneOptions opt;
  opt.nv = 3;
  opt.w_max = 12;
  opt.w_min = 2;
  opt.lambda_min = 25.0;
  const auto evaluate = d::policy_batch_evaluator(policy, smooth_sim);
  auto result = d::min_plus_one(evaluate, opt);
  return {std::move(result), policy.stats()};
}

// The policy-level guarantee of ISSUE 5: turning the cache on must leave
// every optimizer decision and final configuration bit-identical, while
// strictly reducing factorization work (counted by the new PolicyStats
// fields) whenever anything was interpolated.
TEST(FactorCachePolicy, CacheOnIsDecisionIdenticalAndCheaper) {
  const auto [direct, direct_stats] = run_min_plus_one(0);
  const auto [cached, cached_stats] = run_min_plus_one(8);

  EXPECT_EQ(direct.decisions, cached.decisions);
  EXPECT_EQ(direct.w_min, cached.w_min);
  EXPECT_EQ(direct.w_res, cached.w_res);
  EXPECT_EQ(direct.constraint_met, cached.constraint_met);
  EXPECT_NEAR(direct.final_lambda, cached.final_lambda,
              1e-9 * std::max(1.0, std::fabs(direct.final_lambda)));

  // Same evaluation stream on both paths.
  EXPECT_EQ(direct_stats.total, cached_stats.total);
  EXPECT_EQ(direct_stats.simulated, cached_stats.simulated);
  EXPECT_EQ(direct_stats.interpolated, cached_stats.interpolated);

  // The direct path never touches the cache counters.
  EXPECT_EQ(direct_stats.factor_cache_hits, 0u);
  EXPECT_EQ(direct_stats.factor_extends, 0u);

  if (direct_stats.interpolated > 0) {
    // Each solved query on the direct path pays at least one full
    // factorization (ladder rungs and gate-rejected solves may add more).
    EXPECT_GE(direct_stats.full_factorizations, direct_stats.interpolated);
    EXPECT_GT(cached_stats.factor_cache_hits + cached_stats.factor_extends,
              0u);
    EXPECT_LT(cached_stats.full_factorizations,
              direct_stats.full_factorizations);
  }
}

// Batches whose candidates share a neighbourhood: with the cache on, later
// candidates reuse or extend an earlier candidate's factorization. The
// partition must not move and the estimates may differ only by rounding.
TEST(FactorCachePolicy, CacheOnBatchesMatchCacheOffBatches) {
  std::vector<d::Config> seed;
  for (int a = 2; a <= 6; a += 2)
    for (int b = 2; b <= 6; b += 2)
      for (int c = 2; c <= 6; c += 2) seed.push_back({a, b, c});
  const std::vector<std::vector<d::Config>> probes = {
      {{3, 3, 3}, {3, 3, 4}, {3, 4, 3}, {4, 3, 3}},
      {{5, 5, 5}, {5, 5, 4}, {5, 4, 5}, {3, 3, 3}},
      {{3, 5, 3}, {3, 5, 4}, {4, 5, 3}, {5, 3, 5}},
  };
  auto run = [&](std::size_t capacity) {
    d::PolicyOptions popt;
    popt.factor_cache_capacity = capacity;
    d::KrigingPolicy policy(popt);
    (void)policy.evaluate_batch(seed, smooth_sim);
    std::vector<d::EvalOutcome> out;
    for (const auto& batch : probes) {
      const auto o = policy.evaluate_batch(batch, smooth_sim);
      out.insert(out.end(), o.begin(), o.end());
    }
    return std::make_pair(out, policy.stats());
  };
  const auto [direct, direct_stats] = run(0);
  const auto [cached, cached_stats] = run(8);

  ASSERT_EQ(direct.size(), cached.size());
  for (std::size_t i = 0; i < direct.size(); ++i) {
    EXPECT_EQ(direct[i].source, cached[i].source) << "candidate " << i;
    EXPECT_EQ(direct[i].interpolated, cached[i].interpolated) << i;
    EXPECT_EQ(direct[i].cached, cached[i].cached) << i;
    EXPECT_EQ(direct[i].neighbors, cached[i].neighbors) << i;
    EXPECT_NEAR(direct[i].value, cached[i].value,
                1e-9 * std::max(1.0, std::fabs(direct[i].value)))
        << "candidate " << i;
  }
  EXPECT_EQ(direct_stats.simulated, cached_stats.simulated);
  EXPECT_EQ(direct_stats.interpolated, cached_stats.interpolated);
  EXPECT_EQ(direct_stats.exact_hits, cached_stats.exact_hits);
  EXPECT_GT(direct_stats.interpolated, 0u);
  EXPECT_GT(cached_stats.factor_cache_hits + cached_stats.factor_extends, 0u);
}

TEST(FactorCachePolicy, RcondAndRidgeCountersArepopulated) {
  const auto [result, stats] = run_min_plus_one(0);
  (void)result;
  if (stats.interpolated > 0) {
    // Every solved system reports a condition estimate — including solves
    // later rejected by the sanity/variance gates, so >= interpolated.
    EXPECT_GE(stats.rcond_per_solve.count(), stats.interpolated);
    EXPECT_GT(stats.rcond_per_solve.mean(), 0.0);
    EXPECT_LE(stats.ridge_fallbacks, stats.rcond_per_solve.count());
  } else {
    GTEST_SKIP() << "workload produced no interpolations";
  }
}

}  // namespace
