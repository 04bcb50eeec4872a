#include "dse/fault_injection.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <limits>
#include <thread>
#include <vector>

#include "dse/fault.hpp"
#include "dse/kriging_policy.hpp"
#include "dse/min_plus_one.hpp"
#include "dse/scheduler.hpp"
#include "util/thread_pool.hpp"

namespace {

namespace d = ace::dse;
namespace u = ace::util;

double smooth(const d::Config& c) {
  double acc = 0.0;
  for (std::size_t i = 0; i < c.size(); ++i)
    acc += 0.5 * static_cast<double>(c[i]) +
           0.01 * static_cast<double>(c[i] * c[i]) +
           0.02 * static_cast<double>(i + 1) * static_cast<double>(c[i]);
  return acc;
}

/// Policy options that never interpolate: every healthy evaluation is a
/// simulation, so values are exact and runs are trivially comparable.
d::PolicyOptions pure_simulation() {
  d::PolicyOptions options;
  options.min_fit_points = 1000000;
  return options;
}

TEST(FaultInjection, ScheduleIsAPureFunctionOfSeedAndConfig) {
  d::FaultInjectionOptions fi;
  fi.seed = 9;
  fi.throw_probability = 0.2;
  fi.nan_probability = 0.2;
  const d::FaultInjectingSimulator a(smooth, fi);
  const d::FaultInjectingSimulator b(smooth, fi);
  fi.seed = 10;
  const d::FaultInjectingSimulator other(smooth, fi);

  std::size_t faulty = 0;
  bool schedules_differ = false;
  for (int x = 0; x < 10; ++x)
    for (int y = 0; y < 10; ++y) {
      const d::Config c{x, y};
      EXPECT_EQ(a.scheduled_fault(c), b.scheduled_fault(c));
      if (a.scheduled_fault(c) != d::FaultInjectingSimulator::Kind::kNone)
        ++faulty;
      if (a.scheduled_fault(c) != other.scheduled_fault(c))
        schedules_differ = true;
    }
  // ~40 of 100 configurations should be scheduled to fault; allow slack.
  EXPECT_GE(faulty, 15u);
  EXPECT_LE(faulty, 70u);
  EXPECT_TRUE(schedules_differ);
}

TEST(FaultInjection, TransientFaultsRecoverAfterBudget) {
  d::FaultInjectionOptions fi;
  fi.throw_probability = 1.0;  // Every configuration is faulty...
  fi.faulty_calls = 2;         // ...for its first two calls only.
  const d::FaultInjectingSimulator sim(smooth, fi);
  const d::Config c{4, 2};
  EXPECT_THROW((void)sim(c), d::SimulatorFault);
  EXPECT_THROW((void)sim(c), d::SimulatorFault);
  EXPECT_DOUBLE_EQ(sim(c), smooth(c));
  EXPECT_EQ(sim.calls(), 3u);
  EXPECT_EQ(sim.injected_throws(), 2u);
}

TEST(FaultInjection, AlwaysFaultTargetsNeverRecover) {
  d::FaultInjectionOptions fi;
  fi.always_fault = {{3, 3}};
  fi.faulty_calls = 1;
  const d::FaultInjectingSimulator sim(smooth, fi);
  for (int k = 0; k < 4; ++k) EXPECT_THROW((void)sim({3, 3}), d::SimulatorFault);
  EXPECT_DOUBLE_EQ(sim({1, 2}), smooth({1, 2}));
  EXPECT_EQ(sim.injected_throws(), 4u);
}

TEST(FaultInjection, NanAndLatencyKindsBehaveAsScheduled) {
  d::FaultInjectionOptions fi;
  fi.nan_probability = 1.0;
  fi.faulty_calls = 1;
  const d::FaultInjectingSimulator nan_sim(smooth, fi);
  EXPECT_TRUE(std::isnan(nan_sim({0, 0})));
  EXPECT_DOUBLE_EQ(nan_sim({0, 0}), smooth({0, 0}));  // Recovered.
  EXPECT_EQ(nan_sim.injected_nans(), 1u);

  d::FaultInjectionOptions lat;
  lat.latency_probability = 1.0;
  lat.latency_ms = 1;
  const d::FaultInjectingSimulator slow_sim(smooth, lat);
  EXPECT_DOUBLE_EQ(slow_sim({2, 2}), smooth({2, 2}));  // Slow but correct.
  EXPECT_EQ(slow_sim.injected_latency_spikes(), 1u);
}

TEST(PolicyFaults, ThrowingSimulatorIsQuarantinedNotFatal) {
  d::KrigingPolicy policy(pure_simulation());
  std::size_t calls = 0;
  const d::SimulatorFn sim = [&](const d::Config& c) {
    ++calls;
    if (c == d::Config{5, 5}) throw std::runtime_error("sim crashed");
    return smooth(c);
  };

  const d::EvalOutcome bad = policy.evaluate({5, 5}, sim);
  EXPECT_TRUE(bad.faulted());
  EXPECT_EQ(bad.source, d::EvalSource::kFaulted);
  EXPECT_EQ(bad.fault, d::FaultCode::kSimulatorThrow);
  EXPECT_EQ(bad.value, -std::numeric_limits<double>::infinity());
  EXPECT_EQ(bad.attempts, 1u);
  EXPECT_EQ(policy.stats().simulator_faults, 1u);
  EXPECT_EQ(policy.stats().quarantined, 1u);
  EXPECT_TRUE(policy.store().empty());
  EXPECT_EQ(calls, 1u);

  // Quarantined: the retry budget is spent, so re-evaluating must not
  // re-simulate — and the original fault code is preserved.
  const d::EvalOutcome again = policy.evaluate({5, 5}, sim);
  EXPECT_EQ(calls, 1u);
  EXPECT_EQ(again.fault, d::FaultCode::kSimulatorThrow);
  EXPECT_EQ(again.value, -std::numeric_limits<double>::infinity());
  EXPECT_EQ(policy.stats().quarantined, 1u);  // Not double-counted.

  // Healthy siblings are unaffected.
  const d::EvalOutcome good = policy.evaluate({1, 1}, sim);
  EXPECT_FALSE(good.faulted());
  EXPECT_DOUBLE_EQ(good.value, smooth({1, 1}));
}

TEST(PolicyFaults, NanResultIsANonFiniteFault) {
  d::KrigingPolicy policy(pure_simulation());
  const d::SimulatorFn sim = [](const d::Config& c) {
    return c == d::Config{2, 2} ? std::numeric_limits<double>::quiet_NaN()
                                : smooth(c);
  };
  const d::EvalOutcome out = policy.evaluate({2, 2}, sim);
  EXPECT_EQ(out.fault, d::FaultCode::kNonFinite);
  EXPECT_EQ(out.source, d::EvalSource::kFaulted);
  // The NaN never reached the store (which would reject it anyway).
  EXPECT_TRUE(policy.store().empty());
  EXPECT_EQ(*policy.store().quarantined({2, 2}), d::FaultCode::kNonFinite);
}

TEST(PolicyFaults, RetryBudgetRescuesTransientFault) {
  d::PolicyOptions options = pure_simulation();
  options.retry.max_attempts = 3;
  d::KrigingPolicy policy(options);

  d::FaultInjectionOptions fi;
  fi.throw_probability = 1.0;  // Every configuration faults once...
  fi.faulty_calls = 1;         // ...then recovers: one retry suffices.
  const d::FaultInjectingSimulator sim(smooth, fi);

  const d::EvalOutcome out = policy.evaluate({3, 4}, sim);
  EXPECT_FALSE(out.faulted());
  EXPECT_DOUBLE_EQ(out.value, smooth({3, 4}));
  EXPECT_EQ(out.source, d::EvalSource::kSimulated);
  EXPECT_EQ(out.attempts, 2u);
  EXPECT_EQ(policy.stats().retries, 1u);
  EXPECT_EQ(policy.stats().simulator_faults, 1u);
  EXPECT_EQ(policy.stats().quarantined, 0u);
  EXPECT_EQ(policy.store().size(), 1u);
}

TEST(PolicyFaults, DeadlineOverrunIsATimeoutFault) {
  d::PolicyOptions options = pure_simulation();
  options.retry.deadline_ms = 0.5;
  d::KrigingPolicy policy(options);
  const d::SimulatorFn slow = [](const d::Config& c) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    return smooth(c);
  };
  const d::EvalOutcome out = policy.evaluate({1, 2}, slow);
  EXPECT_EQ(out.fault, d::FaultCode::kTimeout);
  EXPECT_EQ(policy.stats().timeouts, 1u);
  EXPECT_EQ(*policy.store().quarantined({1, 2}), d::FaultCode::kTimeout);
}

TEST(PolicyFaults, QuarantinedConfigCanStillBeInterpolated) {
  d::PolicyOptions options;
  options.distance = 3;
  options.nn_min = 1;
  options.min_fit_points = 4;
  d::KrigingPolicy policy(options);
  const d::SimulatorFn sim = [](const d::Config& c) -> double {
    if (c == d::Config{2, 2}) throw std::runtime_error("broken point");
    return smooth(c);
  };

  // Spend {2,2}'s budget: quarantined.
  EXPECT_TRUE(policy.evaluate({2, 2}, sim).faulted());

  // Enrich the neighbourhood with healthy simulations.
  for (const d::Config& c : std::vector<d::Config>{
           {1, 1}, {3, 3}, {1, 3}, {3, 1}, {2, 1}, {1, 2}, {3, 2}, {2, 3}})
    EXPECT_FALSE(policy.evaluate(c, sim).faulted());

  // Interpolation does not need the faulty simulator, so the quarantined
  // configuration is now served by kriging instead of failing forever.
  const d::EvalOutcome out = policy.evaluate({2, 2}, sim);
  EXPECT_FALSE(out.faulted());
  EXPECT_EQ(out.source, d::EvalSource::kInterpolated);
  EXPECT_TRUE(out.interpolated);
  EXPECT_TRUE(std::isfinite(out.value));
}

TEST(PolicyFaults, BatchDegradesPerCandidateAndMatchesPooledRun) {
  const d::SimulatorFn sim = [](const d::Config& c) -> double {
    if (c == d::Config{1, 1}) throw std::runtime_error("bad candidate");
    return smooth(c);
  };
  const std::vector<d::Config> batch = {{0, 0}, {1, 1}, {1, 1}, {2, 2}};

  auto run = [&](u::ThreadPool* pool) {
    d::KrigingPolicy policy(pure_simulation());
    auto outcomes = policy.evaluate_batch(batch, sim, pool);
    return std::make_pair(outcomes, policy.stats());
  };
  const auto inline_run = run(nullptr);
  const auto& outcomes = inline_run.first;

  ASSERT_EQ(outcomes.size(), 4u);
  EXPECT_DOUBLE_EQ(outcomes[0].value, smooth({0, 0}));
  EXPECT_EQ(outcomes[1].fault, d::FaultCode::kSimulatorThrow);
  EXPECT_EQ(outcomes[1].value, -std::numeric_limits<double>::infinity());
  // The duplicate aliases the owner's fault instead of re-simulating.
  EXPECT_EQ(outcomes[2].fault, d::FaultCode::kSimulatorThrow);
  EXPECT_EQ(outcomes[2].source, d::EvalSource::kFaulted);
  EXPECT_DOUBLE_EQ(outcomes[3].value, smooth({2, 2}));

  const d::PolicyStats& stats = inline_run.second;
  EXPECT_EQ(stats.total, 4u);
  EXPECT_EQ(stats.simulated, 2u);
  EXPECT_EQ(stats.simulator_faults, 1u);
  EXPECT_EQ(stats.quarantined, 1u);

  // The deterministic-reduction contract holds under faults too: the
  // pooled run produces bit-identical outcomes and statistics.
  u::ThreadPool pool(4);
  const auto pooled = run(&pool);
  EXPECT_EQ(pooled.first, outcomes);
  EXPECT_TRUE(pooled.second == stats);
}

TEST(PolicyFaults, TransientFaultsLeaveDecisionsIdentical) {
  d::MinPlusOneOptions mpo;
  mpo.nv = 3;
  mpo.w_max = 6;
  mpo.w_min = 2;
  mpo.lambda_min = 7.0;

  // Reference: clean simulator, no retries.
  d::KrigingPolicy clean(pure_simulation());
  const d::SimulatorFn clean_sim = smooth;
  const d::MinPlusOneResult ref =
      d::min_plus_one(d::policy_batch_evaluator(clean, clean_sim), mpo);

  // Fault-injected: every configuration throws on its first call, but the
  // retry budget covers the transient depth, so every decision matches.
  d::PolicyOptions faulted_options = pure_simulation();
  faulted_options.retry.max_attempts = 2;
  d::KrigingPolicy faulted(faulted_options);
  d::FaultInjectionOptions fi;
  fi.throw_probability = 1.0;
  fi.faulty_calls = 1;
  const d::FaultInjectingSimulator fault_sim(smooth, fi);
  const d::MinPlusOneResult res =
      d::min_plus_one(d::policy_batch_evaluator(faulted, fault_sim), mpo);

  EXPECT_EQ(res.w_min, ref.w_min);
  EXPECT_EQ(res.w_res, ref.w_res);
  EXPECT_EQ(res.decisions, ref.decisions);
  EXPECT_DOUBLE_EQ(res.final_lambda, ref.final_lambda);
  EXPECT_EQ(res.constraint_met, ref.constraint_met);

  EXPECT_EQ(faulted.stats().quarantined, 0u);
  EXPECT_GT(faulted.stats().simulator_faults, 0u);
  EXPECT_EQ(faulted.stats().retries, faulted.stats().simulator_faults);
  EXPECT_EQ(faulted.stats().simulated, clean.stats().simulated);
}

TEST(FaultTaxonomy, NamesAreStable) {
  EXPECT_STREQ(d::to_string(d::EvalSource::kSimulated), "simulated");
  EXPECT_STREQ(d::to_string(d::EvalSource::kInterpolated), "interpolated");
  EXPECT_STREQ(d::to_string(d::EvalSource::kExactHit), "exact-hit");
  EXPECT_STREQ(d::to_string(d::EvalSource::kFaulted), "faulted");

  // Checkpoint files store a quarantined configuration's FaultCode as its
  // underlying value, so every code's number is as stable as its name —
  // the two retired codes included.
  struct Pinned {
    d::FaultCode code;
    int value;
    const char* name;
  };
  const Pinned pinned[] = {
      {d::FaultCode::kNone, 0, "none"},
      {d::FaultCode::kNonFinite, 1, "non-finite"},
      {d::FaultCode::kSimulatorThrow, 2, "simulator-throw"},
      {d::FaultCode::kTimeout, 3, "timeout"},
      {d::FaultCode::kKrigingUnsolvable, 4, "kriging-unsolvable"},
      {d::FaultCode::kContractViolation, 5, "contract-violation"},
      {d::FaultCode::kWorkerLost, 6, "worker-lost"},
      {d::FaultCode::kLeaseExpired, 7, "lease-expired"},
      {d::FaultCode::kCorruptPayload, 8, "corrupt-payload"},
      {d::FaultCode::kTruncatedPayload, 9, "truncated-payload"},
  };
  for (const Pinned& p : pinned) {
    EXPECT_EQ(static_cast<int>(p.code), p.value) << p.name;
    EXPECT_STREQ(d::to_string(p.code), p.name);
  }
  // Nothing past the last pinned code: one appended later must be pinned
  // here too.
  EXPECT_STREQ(d::to_string(static_cast<d::FaultCode>(10)), "unknown");
}

}  // namespace
