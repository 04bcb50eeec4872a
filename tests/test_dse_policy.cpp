#include "dse/kriging_policy.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <stdexcept>
#include <thread>
#include <vector>

#include "dse/min_plus_one.hpp"
#include "dse/scheduler.hpp"
#include "util/thread_pool.hpp"

namespace {

namespace d = ace::dse;

/// Smooth 2-D test surface: λ(x, y) = −(x + 2y), linear so kriging with the
/// fitted variogram interpolates it very accurately.
double linear_surface(const d::Config& c) {
  return -(static_cast<double>(c[0]) + 2.0 * static_cast<double>(c[1]));
}

d::PolicyOptions small_fit_options(int distance, std::size_t nn_min = 1) {
  d::PolicyOptions o;
  o.distance = distance;
  o.nn_min = nn_min;
  // High enough that the six-point seeding clusters below are fully
  // simulated before kriging can kick in.
  o.min_fit_points = 6;
  return o;
}

TEST(KrigingPolicy, RejectsNegativeDistance) {
  d::PolicyOptions o;
  o.distance = -1;
  EXPECT_THROW(d::KrigingPolicy{o}, std::invalid_argument);
}

TEST(KrigingPolicy, FirstEvaluationsAreSimulated) {
  d::KrigingPolicy policy(small_fit_options(2));
  std::size_t calls = 0;
  auto sim = [&](const d::Config& c) {
    ++calls;
    return linear_surface(c);
  };
  const auto o1 = policy.evaluate({0, 0}, sim);
  EXPECT_FALSE(o1.interpolated);
  EXPECT_DOUBLE_EQ(o1.value, 0.0);
  const auto o2 = policy.evaluate({4, 4}, sim);  // Far from {0,0}.
  EXPECT_FALSE(o2.interpolated);
  EXPECT_EQ(calls, 2u);
  EXPECT_EQ(policy.store().size(), 2u);
  EXPECT_EQ(policy.stats().simulated, 2u);
  EXPECT_EQ(policy.stats().interpolated, 0u);
}

TEST(KrigingPolicy, InterpolatesWhenNeighborhoodIsRich) {
  d::KrigingPolicy policy(small_fit_options(3));
  std::size_t calls = 0;
  auto sim = [&](const d::Config& c) {
    ++calls;
    return linear_surface(c);
  };
  // Seed a dense cluster by simulation.
  for (const d::Config& c : std::vector<d::Config>{
           {0, 0}, {1, 0}, {0, 1}, {2, 0}, {1, 1}, {0, 2}})
    (void)policy.evaluate(c, sim);
  ASSERT_EQ(calls, 6u);

  // Query inside the cluster: must interpolate, not simulate.
  const auto o = policy.evaluate({1, 2}, sim);
  EXPECT_TRUE(o.interpolated);
  EXPECT_EQ(calls, 6u);  // No new simulation.
  EXPECT_GT(o.neighbors, 1u);
  // Linear surface: interpolation should be near-exact.
  EXPECT_NEAR(o.value, linear_surface({1, 2}), 0.5);
}

TEST(KrigingPolicy, InterpolatedConfigsNeverEnterTheStore) {
  // The paper's rule: interpolated points are not reused for kriging.
  d::KrigingPolicy policy(small_fit_options(4));
  auto sim = [&](const d::Config& c) { return linear_surface(c); };
  for (const d::Config& c : std::vector<d::Config>{
           {0, 0}, {1, 0}, {0, 1}, {2, 0}, {1, 1}, {0, 2}})
    (void)policy.evaluate(c, sim);
  const std::size_t before = policy.store().size();
  const auto o = policy.evaluate({1, 2}, sim);
  ASSERT_TRUE(o.interpolated);
  EXPECT_EQ(policy.store().size(), before);
  // Every stored config was simulated: store size == simulated count.
  EXPECT_EQ(policy.store().size(), policy.stats().simulated);
}

TEST(KrigingPolicy, NnMinGatesInterpolation) {
  // With nn_min = 10, a 6-point neighbourhood is not enough.
  d::KrigingPolicy policy(small_fit_options(4, /*nn_min=*/10));
  std::size_t calls = 0;
  auto sim = [&](const d::Config& c) {
    ++calls;
    return linear_surface(c);
  };
  for (const d::Config& c : std::vector<d::Config>{
           {0, 0}, {1, 0}, {0, 1}, {2, 0}, {1, 1}, {0, 2}})
    (void)policy.evaluate(c, sim);
  const auto o = policy.evaluate({1, 2}, sim);
  EXPECT_FALSE(o.interpolated);
  EXPECT_EQ(calls, 7u);
}

TEST(KrigingPolicy, DistanceZeroOnlyMatchesExactRepeats) {
  d::PolicyOptions o = small_fit_options(0);
  o.min_fit_points = 1;
  d::KrigingPolicy policy(o);
  auto sim = [&](const d::Config& c) { return linear_surface(c); };
  (void)policy.evaluate({3, 3}, sim);
  const auto far = policy.evaluate({3, 4}, sim);
  EXPECT_FALSE(far.interpolated);
}

TEST(KrigingPolicy, StatsTrackNeighborCounts) {
  d::KrigingPolicy policy(small_fit_options(4));
  auto sim = [&](const d::Config& c) { return linear_surface(c); };
  for (const d::Config& c : std::vector<d::Config>{
           {0, 0}, {1, 0}, {0, 1}, {2, 0}, {1, 1}, {0, 2}})
    (void)policy.evaluate(c, sim);
  (void)policy.evaluate({1, 2}, sim);
  (void)policy.evaluate({2, 1}, sim);
  const auto& stats = policy.stats();
  EXPECT_EQ(stats.total, 8u);
  EXPECT_EQ(stats.interpolated, 2u);
  EXPECT_EQ(stats.simulated, 6u);
  EXPECT_GT(stats.neighbors_per_interpolation.mean(), 1.0);
  EXPECT_NEAR(stats.interpolated_fraction(), 0.25, 1e-12);
}

TEST(KrigingPolicy, RefitModelRequiresEnoughData) {
  d::KrigingPolicy policy(small_fit_options(3));
  EXPECT_FALSE(policy.refit_model());
  auto sim = [&](const d::Config& c) { return linear_surface(c); };
  (void)policy.evaluate({0, 0}, sim);
  EXPECT_FALSE(policy.refit_model());  // One point: no pairs.
  (void)policy.evaluate({5, 5}, sim);
  // Two points produce a single bin — still not fittable (needs 2 bins).
  EXPECT_FALSE(policy.refit_model());
  (void)policy.evaluate({9, 0}, sim);
  EXPECT_TRUE(policy.refit_model());
  EXPECT_NE(policy.model(), nullptr);
}

TEST(KrigingPolicy, RejectsNegativeVarianceGate) {
  // The VarianceGate ceiling must be a positive finite multiple of the
  // sill; no value of it means "gate off".
  for (const double bad :
       {-0.5, 0.0, std::numeric_limits<double>::quiet_NaN(),
        std::numeric_limits<double>::infinity()}) {
    d::PolicyOptions o;
    o.variance_gate = bad;
    EXPECT_THROW(d::KrigingPolicy{o}, std::invalid_argument) << bad;
  }
}

TEST(KrigingPolicy, RejectsNegativeOrNonFiniteSanitySpan) {
  // Only 0 disables the estimate sanity guard; a negative or non-finite
  // span is a configuration error, not another way to switch it off.
  for (const double bad :
       {-1.0, std::numeric_limits<double>::quiet_NaN(),
        std::numeric_limits<double>::infinity(),
        -std::numeric_limits<double>::infinity()}) {
    d::PolicyOptions o;
    o.sanity_span = bad;
    EXPECT_THROW(d::KrigingPolicy{o}, std::invalid_argument) << bad;
  }
  d::PolicyOptions off;
  off.sanity_span = 0.0;
  EXPECT_NO_THROW(d::KrigingPolicy{off});
}

TEST(KrigingPolicy, VarianceGateRejectsFarExtrapolations) {
  auto surface = [](const d::Config& c) {
    return static_cast<double>(c[0] * c[0]);
  };
  d::PolicyOptions gated = small_fit_options(12);
  gated.gate = d::GateKind::kVariance;
  gated.variance_gate = 0.05;  // Very strict.
  d::KrigingPolicy policy(gated);
  std::size_t sims = 0;
  auto counted = [&](const d::Config& c) {
    ++sims;
    return surface(c);
  };
  for (int x = 0; x < 8; ++x) (void)policy.evaluate({x, 0}, counted);
  // A far query inside the radius but outside the cluster: high kriging
  // variance, the gate forces simulation.
  (void)policy.evaluate({0, 11}, counted);
  EXPECT_GT(policy.stats().variance_rejections, 0u);
  EXPECT_EQ(policy.stats().interpolated, 0u);
}

TEST(KrigingPolicy, SanityGuardRejectsWildEstimates) {
  // Force a pathological support: after a cliff in the field, a gaussian
  // variogram can produce estimates far outside the support range. With
  // the guard enabled such interpolations must fall back to simulation,
  // so every produced value stays within the guard's envelope.
  auto cliff = [](const d::Config& c) {
    return c[0] >= 6 ? 400.0 : 20.0 * c[0];
  };
  d::PolicyOptions o = small_fit_options(5);
  o.sanity_span = 1.0;
  d::KrigingPolicy policy(o);
  for (int x = 0; x <= 10; ++x)
    for (int y : {0, 1}) {
      const auto r = policy.evaluate({x, y}, cliff);
      if (!r.interpolated) continue;
      EXPECT_GE(r.value, -420.0);
      EXPECT_LE(r.value, 820.0);  // Within ~1 span of the field range.
    }
}

TEST(KrigingPolicy, SanityGuardCanBeDisabled) {
  d::PolicyOptions o = small_fit_options(3);
  o.sanity_span = 0.0;
  EXPECT_NO_THROW(d::KrigingPolicy{o});
}

TEST(KrigingPolicy, ExactRepeatIsServedFromTheStore) {
  d::KrigingPolicy policy(small_fit_options(2));
  std::size_t calls = 0;
  auto sim = [&](const d::Config& c) {
    ++calls;
    return linear_surface(c);
  };
  const auto first = policy.evaluate({3, 3}, sim);
  const auto repeat = policy.evaluate({3, 3}, sim);
  EXPECT_EQ(calls, 1u);  // No re-simulation of a stored configuration.
  EXPECT_FALSE(first.cached);
  EXPECT_TRUE(repeat.cached);
  EXPECT_FALSE(repeat.interpolated);
  EXPECT_DOUBLE_EQ(repeat.value, first.value);
  EXPECT_EQ(policy.store().size(), 1u);
  EXPECT_EQ(policy.stats().exact_hits, 1u);
  EXPECT_EQ(policy.stats().simulated, 1u);
  EXPECT_EQ(policy.stats().total, 2u);
}

TEST(KrigingPolicy, FailedRefitBacksOffUntilPeriodElapses) {
  // A fit attempt that fails (all stored pairs in one distance bin) must
  // not be retried on every subsequent evaluation — only after another
  // refit_period of new simulations.
  d::PolicyOptions o;
  o.distance = 2;
  o.nn_min = 1;
  o.min_fit_points = 2;
  o.refit_period = 4;
  d::KrigingPolicy policy(o);
  auto sim = [](const d::Config& c) { return linear_surface(c); };

  (void)policy.evaluate({0, 0}, sim);
  (void)policy.evaluate({1, 0}, sim);
  // Rich neighbourhood triggers the first fit attempt: two stored points
  // give a single variogram bin, so the fit fails.
  (void)policy.evaluate({0, 1}, sim);
  EXPECT_EQ(policy.stats().failed_refits, 1u);
  EXPECT_EQ(policy.model(), nullptr);

  // The next evaluations are still below the backoff threshold: no new
  // attempts pile up even though every one of them would like a model.
  (void)policy.evaluate({1, 1}, sim);
  (void)policy.evaluate({2, 1}, sim);
  (void)policy.evaluate({2, 0}, sim);
  EXPECT_EQ(policy.stats().failed_refits, 1u);

  // Enough new simulations accumulated: the retry happens and succeeds.
  (void)policy.evaluate({1, 2}, sim);
  EXPECT_EQ(policy.stats().failed_refits, 1u);
  EXPECT_EQ(policy.stats().refits, 1u);
  EXPECT_NE(policy.model(), nullptr);
}

TEST(KrigingPolicyBatch, ParallelIsBitIdenticalToSerial) {
  // The batch engine partitions against the store at entry and folds in
  // index order, so a pool must not change a single bit of the outcomes.
  const std::vector<std::vector<d::Config>> batches = {
      {{0, 0}, {1, 0}, {0, 1}, {2, 0}, {1, 1}, {0, 2}},
      {{1, 2}, {2, 1}, {2, 2}, {1, 2}, {3, 1}},  // Includes a duplicate.
      {{3, 2}, {2, 3}, {3, 3}, {4, 2}, {0, 0}},  // Includes a store hit.
  };
  auto run = [&](ace::util::ThreadPool* pool) {
    d::KrigingPolicy policy(small_fit_options(3));
    auto sim = [](const d::Config& c) { return linear_surface(c); };
    std::vector<d::EvalOutcome> outcomes;
    for (const auto& batch : batches) {
      const auto out = policy.evaluate_batch(batch, sim, pool);
      outcomes.insert(outcomes.end(), out.begin(), out.end());
    }
    return std::make_tuple(outcomes, policy.stats().simulated,
                           policy.stats().interpolated,
                           policy.stats().exact_hits,
                           policy.store().values());
  };
  const auto serial = run(nullptr);
  for (const std::size_t workers : {1u, 2u, 4u}) {
    ace::util::ThreadPool pool(workers);
    EXPECT_EQ(run(&pool), serial);
  }
}

TEST(KrigingPolicyBatch, DuplicateCandidatesSimulateOnce) {
  d::KrigingPolicy policy(small_fit_options(2));
  std::atomic<std::size_t> calls{0};
  auto sim = [&](const d::Config& c) {
    ++calls;
    return linear_surface(c);
  };
  const auto out =
      policy.evaluate_batch({{5, 5}, {9, 9}, {5, 5}}, sim, nullptr);
  EXPECT_EQ(calls.load(), 2u);  // The duplicate aliases the first result.
  ASSERT_EQ(out.size(), 3u);
  EXPECT_TRUE(out[2].cached);
  EXPECT_DOUBLE_EQ(out[2].value, out[0].value);
  EXPECT_EQ(policy.stats().simulated, 2u);
  EXPECT_EQ(policy.stats().exact_hits, 1u);
  EXPECT_EQ(policy.stats().total, 3u);
  EXPECT_EQ(policy.store().size(), 2u);
}

TEST(KrigingPolicyBatch, PartitionSeesTheStoreAtEntryOnly) {
  // Sequential evaluation would let late batch members interpolate off
  // early ones; the batch engine decides everything up front, so a tight
  // cluster hitting an empty store is fully simulated.
  d::KrigingPolicy policy(small_fit_options(3));
  auto sim = [](const d::Config& c) { return linear_surface(c); };
  const auto out = policy.evaluate_batch(
      {{0, 0}, {1, 0}, {0, 1}, {2, 0}, {1, 1}, {0, 2}, {1, 2}, {2, 1}}, sim,
      nullptr);
  EXPECT_EQ(policy.stats().simulated, 8u);
  EXPECT_EQ(policy.stats().interpolated, 0u);
  for (const auto& o : out) EXPECT_FALSE(o.interpolated);
  // A follow-up batch does see the enriched store.
  (void)policy.evaluate_batch({{1, 1}, {2, 2}}, sim, nullptr);
  EXPECT_EQ(policy.stats().exact_hits, 1u);   // {1,1} is stored.
  EXPECT_GT(policy.stats().interpolated, 0u); // {2,2} interpolates.
}

TEST(KrigingPolicyBatch, ScalarEvaluateIsABatchOfOne) {
  // evaluate(c) is documented as exactly evaluate_batch({c}): the same walk
  // through both entry points must agree on every outcome, counter and
  // stored value.
  std::vector<d::Config> walk;
  for (int x = 0; x < 4; ++x)
    for (int y = 0; y < 4; ++y) walk.push_back({x, y});
  walk.push_back({0, 0});  // Exact repeat of the first (simulated) point.
  walk.push_back({5, 4});
  auto sim = [](const d::Config& c) { return linear_surface(c); };
  const d::PolicyOptions o = small_fit_options(3);
  d::KrigingPolicy scalar(o);
  d::KrigingPolicy batched(o);
  for (std::size_t i = 0; i < walk.size(); ++i) {
    const auto a = scalar.evaluate(walk[i], sim);
    const auto b = batched.evaluate_batch({walk[i]}, sim);
    ASSERT_EQ(b.size(), 1u);
    EXPECT_EQ(a, b.front()) << "step=" << i;
  }
  EXPECT_EQ(scalar.stats(), batched.stats());
  EXPECT_EQ(scalar.store().values(), batched.store().values());
  // The walk exercises every branch: simulate, interpolate, store hit.
  EXPECT_GT(scalar.stats().interpolated, 0u);
  EXPECT_GT(scalar.stats().exact_hits, 0u);
}

// The solve counters a min+1 run folds into PolicyStats: every solved
// system reports a condition estimate — including solves later rejected
// by the sanity/variance gates, so at least one per interpolation — each
// solve pays at least one full factorization, and the retired factor
// cache's counters stay 0 (they remain only in the checkpoint layout).
TEST(KrigingPolicy, MinPlusOneRunPopulatesSolveCounters) {
  d::KrigingPolicy policy;
  d::MinPlusOneOptions opt;
  opt.nv = 3;
  opt.w_max = 12;
  opt.w_min = 2;
  opt.lambda_min = 25.0;
  const auto sim = [](const d::Config& w) {
    double acc = 0.0;
    for (std::size_t i = 0; i < w.size(); ++i)
      acc += (1.0 + 0.1 * static_cast<double>(i)) * static_cast<double>(w[i]);
    return acc;
  };
  (void)d::min_plus_one(d::policy_batch_evaluator(policy, sim), opt);
  const d::PolicyStats stats = policy.stats();
  ASSERT_GT(stats.interpolated, 0u);
  EXPECT_GE(stats.rcond_per_solve.count(), stats.interpolated);
  EXPECT_GT(stats.rcond_per_solve.mean(), 0.0);
  EXPECT_LE(stats.ridge_fallbacks, stats.rcond_per_solve.count());
  EXPECT_GE(stats.full_factorizations, stats.interpolated);
}

TEST(KrigingPolicy, ConstantSurfaceInterpolatesToConstant) {
  d::KrigingPolicy policy(small_fit_options(4));
  auto sim = [](const d::Config&) { return 7.0; };
  for (const d::Config& c : std::vector<d::Config>{
           {0, 0}, {1, 0}, {0, 1}, {1, 1}, {2, 0}, {0, 2}})
    (void)policy.evaluate(c, sim);
  const auto o = policy.evaluate({1, 2}, [](const d::Config&) {
    ADD_FAILURE() << "constant surface should interpolate";
    return 0.0;
  });
  EXPECT_TRUE(o.interpolated);
  EXPECT_NEAR(o.value, 7.0, 1e-6);
}

// Regression: stats() and model() used to return references/pointers
// into mutex-guarded state that the caller read *after* the guard
// released — a data race with any concurrent evaluate_batch. They now
// return snapshots; this test hammers both accessors while batches mutate
// the policy and must run clean under TSan.
TEST(KrigingPolicy, AccessorSnapshotsRaceFreeAgainstEvaluateBatch) {
  d::PolicyOptions o = small_fit_options(3);
  o.min_fit_points = 4;
  o.refit_period = 2;  // Frequent refits: model_ churns constantly.
  d::KrigingPolicy policy(o);
  auto sim = [](const d::Config& c) { return linear_surface(c); };

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> reads{0};
  std::thread reader([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      // Consume the snapshot fields; mid-batch the counters are folded at
      // different phases, so no cross-field invariant holds — the contract
      // under test is that reading them here is race-free.
      const d::PolicyStats snapshot = policy.stats();
      volatile std::uint64_t sink =
          snapshot.simulated + snapshot.interpolated + snapshot.exact_hits +
          snapshot.total;
      (void)sink;
      const auto model = policy.model();
      if (model) (void)model->gamma(1.0);
      reads.fetch_add(1, std::memory_order_relaxed);
    }
  });

  for (int x = 0; x < 8; ++x) {
    std::vector<d::Config> batch;
    for (int y = 0; y < 6; ++y) batch.push_back({x, y});
    (void)policy.evaluate_batch(batch, sim, nullptr);
  }
  // The batches can finish before the reader thread is first scheduled;
  // hold the door open until it has observed the policy at least once.
  while (reads.load(std::memory_order_relaxed) == 0) std::this_thread::yield();
  stop.store(true, std::memory_order_relaxed);
  reader.join();
  EXPECT_EQ(policy.stats().total, 48u);
}

// Two writers on one policy, both driving refits: every batch adds
// simulations on its thread's own region, so with refit_period = 2 the
// refit clock keeps coming due on whichever thread runs next, and the
// variogram's extend() and fit_best run from both threads. The variogram
// has no lock of its own — the policy mutex guards it — so this must run
// clean under TSan and keep the counters consistent.
TEST(KrigingPolicy, ConcurrentBatchesRefitUnderThePolicyLock) {
  d::PolicyOptions o = small_fit_options(3);
  o.min_fit_points = 4;
  o.refit_period = 2;
  d::KrigingPolicy policy(o);
  auto sim = [](const d::Config& c) { return linear_surface(c); };

  std::atomic<int> started{0};
  const auto writer = [&](int y0, std::size_t& interpolated) {
    started.fetch_add(1);
    while (started.load() < 2) std::this_thread::yield();
    for (int x = 0; x < 8; ++x) {
      std::vector<d::Config> batch;
      for (int y = 0; y < 6; ++y) batch.push_back({x, y0 + y});
      for (const d::EvalOutcome& out : policy.evaluate_batch(batch, sim)) {
        EXPECT_FALSE(out.faulted());
        if (out.interpolated) ++interpolated;
      }
    }
  };
  // The two regions lie more than d = 3 apart, so neither thread's
  // candidates draw support from the other's.
  std::size_t interpolated_a = 0;
  std::size_t interpolated_b = 0;
  std::thread a(writer, 0, std::ref(interpolated_a));
  std::thread b(writer, 20, std::ref(interpolated_b));
  a.join();
  b.join();

  const d::PolicyStats stats = policy.stats();
  EXPECT_EQ(stats.total, 96u);
  EXPECT_EQ(stats.total,
            stats.simulated + stats.interpolated + stats.exact_hits);
  EXPECT_EQ(policy.store().size(), stats.simulated);
  EXPECT_EQ(interpolated_a + interpolated_b, stats.interpolated);
  EXPECT_GT(interpolated_a, 0u);
  EXPECT_GT(interpolated_b, 0u);
  EXPECT_GE(stats.refits, 4u);
}

}  // namespace
