// SessionManager: the multi-session service must leave every session's
// decision sequence bit-identical to running that session standalone —
// through queueing, interleaving on service threads, and park/resume.
#include "serve/session.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstddef>
#include <vector>

#include "dse/min_plus_one.hpp"
#include "dse/scheduler.hpp"
#include "dse/steepest_descent.hpp"
#include "util/thread_pool.hpp"

namespace {

namespace d = ace::dse;
namespace s = ace::serve;

/// Deterministic smooth surface, parameterized so each session sees a
/// different (but reproducible) landscape.
d::SimulatorFn make_surface(std::size_t salt) {
  return [salt](const d::Config& c) {
    double acc = 0.0;
    for (std::size_t i = 0; i < c.size(); ++i)
      acc += (1.0 + 0.07 * static_cast<double>((i + salt) % 5)) *
             static_cast<double>(c[i]);
    return acc + 0.01 * static_cast<double>(salt % 11);
  };
}

s::SessionSpec min_plus_spec(std::size_t salt) {
  s::SessionSpec spec;
  spec.name = "min+1 #" + std::to_string(salt);
  spec.optimizer = s::OptimizerKind::kMinPlusOne;
  spec.min_plus.nv = 3;
  spec.min_plus.w_max = 10;
  spec.min_plus.w_min = 2;
  spec.min_plus.lambda_min = 18.0 + static_cast<double>(salt % 4);
  spec.simulate = make_surface(salt);
  return spec;
}

/// Standalone reference: run the same spec to completion with a fresh
/// policy — the bit-identity baseline for every service-side run.
d::MinPlusOneResult standalone_min_plus(const s::SessionSpec& spec) {
  d::KrigingPolicy policy(spec.policy);
  const auto evaluate = d::policy_batch_evaluator(policy, spec.simulate);
  d::MinPlusOneCursor cursor = d::make_min_plus_one_cursor(spec.min_plus);
  while (d::min_plus_one_step(evaluate, spec.min_plus, cursor)) {
  }
  return d::min_plus_one_result(cursor, spec.min_plus);
}

void expect_identical(const d::MinPlusOneResult& a,
                      const d::MinPlusOneResult& b) {
  EXPECT_EQ(a.decisions, b.decisions);
  EXPECT_EQ(a.w_min, b.w_min);
  EXPECT_EQ(a.w_res, b.w_res);
  EXPECT_EQ(a.constraint_met, b.constraint_met);
  // Bit-identical, not approximately equal: the whole point of the
  // determinism contract.
  EXPECT_EQ(a.final_lambda, b.final_lambda);
}

TEST(SessionManager, RejectsBadSpecs) {
  s::SessionManager manager;
  s::SessionSpec no_sim = min_plus_spec(0);
  no_sim.simulate = nullptr;
  EXPECT_THROW((void)manager.create(no_sim), std::invalid_argument);
  s::SessionSpec no_nv = min_plus_spec(0);
  no_nv.min_plus.nv = 0;
  EXPECT_THROW((void)manager.create(no_nv), std::invalid_argument);
  EXPECT_THROW((void)manager.submit(42, 1), std::out_of_range);
}

TEST(SessionManager, SingleSessionMatchesStandalone) {
  const s::SessionSpec spec = min_plus_spec(7);
  const d::MinPlusOneResult reference = standalone_min_plus(spec);

  s::SessionManager manager;
  const s::SessionId id = manager.create(spec);
  manager.wait(manager.submit(id, 1000));
  const s::SessionProgress progress = manager.progress(id);
  EXPECT_TRUE(progress.exists);
  EXPECT_TRUE(progress.finished);
  expect_identical(manager.min_plus_one_result(id), reference);
}

TEST(SessionManager, ChunkedStepsMatchOneShot) {
  // Driving the cursor 2 steps per request must land on the same result:
  // requests are just resumable slices of one run.
  const s::SessionSpec spec = min_plus_spec(3);
  const d::MinPlusOneResult reference = standalone_min_plus(spec);

  s::SessionManager manager;
  const s::SessionId id = manager.create(spec);
  while (!manager.progress(id).finished) manager.wait(manager.submit(id, 2));
  expect_identical(manager.min_plus_one_result(id), reference);
}

TEST(SessionManager, ParkResumeRoundTripIsBitIdentical) {
  const s::SessionSpec spec = min_plus_spec(5);
  const d::MinPlusOneResult reference = standalone_min_plus(spec);

  // Reference stats from an unparked service run of the same spec.
  s::SessionManager plain;
  const s::SessionId p = plain.create(spec);
  plain.wait(plain.submit(p, 1000));
  const d::PolicyStats unparked = plain.progress(p).stats;

  s::SessionManager manager;
  const s::SessionId id = manager.create(spec);
  manager.wait(manager.submit(id, 3));  // Partial progress.
  manager.park(id);
  EXPECT_FALSE(manager.progress(id).resident);
  EXPECT_EQ(manager.resident_count(), 0u);

  // Parked progress is still reportable (from the checkpointed cursor).
  const std::size_t steps_before = manager.progress(id).steps;
  EXPECT_GT(steps_before, 0u);

  manager.wait(manager.submit(id, 1000));  // Resume and finish.
  expect_identical(manager.min_plus_one_result(id), reference);

  // The replayed policy's statistics line up with the never-parked run —
  // parking is invisible to the evaluation stream.
  const d::PolicyStats stats = manager.progress(id).stats;
  EXPECT_EQ(stats.total, unparked.total);
  EXPECT_EQ(stats.simulated, unparked.simulated);
  EXPECT_EQ(stats.interpolated, unparked.interpolated);
  EXPECT_EQ(stats.refits, unparked.refits);
  const auto serve_stats = manager.stats();
  EXPECT_EQ(serve_stats.parks, 1u);
  EXPECT_EQ(serve_stats.resumes, 1u);
}

TEST(SessionManager, GateBearingSessionParksAndResumesWithEqualStats) {
  // A session running an adaptive acquisition gate carries online LOO
  // calibration state that the checkpoint format deliberately does not
  // persist — restore replays the recorded refits, which re-run the LOO
  // passes. Parking mid-run must therefore be invisible: the resumed
  // session's *entire* PolicyStats (gate counters and the loo_abs_error
  // moments included) equals the never-parked run's.
  s::SessionSpec spec = min_plus_spec(9);
  spec.name = "gated min+1";
  spec.policy.gate = d::GateKind::kLooCalibrated;

  s::SessionManager plain;
  const s::SessionId p = plain.create(spec);
  plain.wait(plain.submit(p, 1000));
  ASSERT_TRUE(plain.progress(p).finished);
  const d::PolicyStats unparked = plain.progress(p).stats;

  s::SessionManager manager;
  const s::SessionId id = manager.create(spec);
  manager.wait(manager.submit(id, 3));
  manager.park(id);
  EXPECT_FALSE(manager.progress(id).resident);
  manager.wait(manager.submit(id, 2));  // Resume, then park again.
  manager.park(id);
  manager.wait(manager.submit(id, 1000));
  ASSERT_TRUE(manager.progress(id).finished);

  expect_identical(manager.min_plus_one_result(id),
                   plain.min_plus_one_result(p));
  EXPECT_TRUE(manager.progress(id).stats == unparked);
  EXPECT_EQ(manager.stats().parks, 2u);
  EXPECT_EQ(manager.stats().resumes, 2u);
}

TEST(SessionManager, LruResidencyCapParksColdSessions) {
  s::SessionManagerOptions options;
  options.service_threads = 1;
  options.resident_capacity = 2;
  s::SessionManager manager(options);

  std::vector<s::SessionId> ids;
  for (std::size_t i = 0; i < 5; ++i) {
    const s::SessionId id = manager.create(min_plus_spec(i));
    manager.wait(manager.submit(id, 1));  // Make it resident, 1 step.
    ids.push_back(id);
  }
  manager.drain();
  EXPECT_LE(manager.resident_count(), 2u);
  EXPECT_GE(manager.stats().parks, 3u);

  // Every session — parked or resident — still finishes identically.
  for (std::size_t i = 0; i < ids.size(); ++i) {
    manager.wait(manager.submit(ids[i], 1000));
    expect_identical(manager.min_plus_one_result(ids[i]),
                     standalone_min_plus(min_plus_spec(i)));
  }
}

TEST(SessionManager, ConcurrentSessionsAreEachBitIdentical) {
  // The stress knob: many sessions, few service threads, tiny queue and
  // resident cache, a shared simulation pool — maximum interleaving and
  // park/resume churn. Run under TSan/ASan by tools/run_sanitizers.sh.
  constexpr std::size_t kSessions = 12;
  ace::util::ThreadPool pool(3);
  s::SessionManagerOptions options;
  options.service_threads = 4;
  options.queue_capacity = 6;
  options.resident_capacity = 5;
  options.pool = &pool;
  s::SessionManager manager(options);

  std::vector<s::SessionId> ids;
  for (std::size_t i = 0; i < kSessions; ++i)
    ids.push_back(manager.create(min_plus_spec(i)));

  // Interleave: several rounds of small slices across all sessions, then
  // a run-to-completion round. No waits between submits inside a round,
  // so requests from different sessions overlap on the service threads.
  for (int round = 0; round < 3; ++round)
    for (const s::SessionId id : ids) (void)manager.submit(id, 2);
  for (const s::SessionId id : ids) (void)manager.submit(id, 1000);
  manager.drain();

  for (std::size_t i = 0; i < kSessions; ++i) {
    EXPECT_TRUE(manager.progress(ids[i]).finished) << "session " << i;
    expect_identical(manager.min_plus_one_result(ids[i]),
                     standalone_min_plus(min_plus_spec(i)));
  }
  const auto stats = manager.stats();
  EXPECT_EQ(stats.sessions_created, kSessions);
  EXPECT_EQ(stats.requests, kSessions * 4);
  EXPECT_EQ(manager.request_latencies_ms().size(), kSessions * 4);
  EXPECT_GT(stats.backpressure_waits, 0u);  // Queue of 6 vs 48 requests.
}

TEST(SessionManager, SteepestDescentSessionsWork) {
  s::SessionSpec spec;
  spec.name = "budgeting";
  spec.optimizer = s::OptimizerKind::kSteepestDescent;
  spec.sensitivity.nv = 3;
  spec.sensitivity.level_min = 0;
  spec.sensitivity.level_max = 6;
  spec.sensitivity.lambda_min = 4.0;
  spec.simulate = [](const d::Config& c) {
    double acc = 0.0;
    for (std::size_t i = 0; i < c.size(); ++i)
      acc += 0.5 * static_cast<double>(c[i]);
    return acc;
  };

  // Standalone reference.
  d::KrigingPolicy policy(spec.policy);
  const auto evaluate = d::policy_batch_evaluator(policy, spec.simulate);
  d::SensitivityCursor cursor = d::make_sensitivity_cursor(spec.sensitivity);
  while (d::steepest_descent_step(evaluate, spec.sensitivity, cursor)) {
  }
  const d::SensitivityResult reference = d::sensitivity_result(cursor);

  s::SessionManager manager;
  const s::SessionId id = manager.create(spec);
  manager.wait(manager.submit(id, 2));
  manager.park(id);
  manager.wait(manager.submit(id, 1000));
  const d::SensitivityResult got = manager.sensitivity_result(id);
  EXPECT_EQ(got.decisions, reference.decisions);
  EXPECT_EQ(got.levels, reference.levels);
  EXPECT_EQ(got.final_lambda, reference.final_lambda);
  EXPECT_EQ(got.feasible, reference.feasible);
  EXPECT_THROW((void)manager.min_plus_one_result(id), std::logic_error);
}

TEST(SessionManager, TinyQueueStaysLive) {
  // queue_capacity 1 forces every submit after the first to block until
  // the service thread frees the slot — liveness, not deadlock.
  s::SessionManagerOptions options;
  options.service_threads = 2;
  options.queue_capacity = 1;
  s::SessionManager manager(options);
  const s::SessionId a = manager.create(min_plus_spec(1));
  const s::SessionId b = manager.create(min_plus_spec(2));
  for (int i = 0; i < 4; ++i) {
    (void)manager.submit(a, 1);
    (void)manager.submit(b, 1);
  }
  manager.drain();
  EXPECT_EQ(manager.stats().requests, 8u);
  EXPECT_EQ(manager.stats().steps, 8u);
}

TEST(SessionManager, FinishedSessionReleasesItsPolicy) {
  // A finished cursor never evaluates again, so the slice that finishes it
  // drops the policy outright — no park, no checkpoint — and later
  // requests run without building or resuming one.
  s::SessionSpec spec = min_plus_spec(4);
  std::atomic<std::size_t> simulations{0};
  spec.simulate = [&simulations, inner = spec.simulate](const d::Config& c) {
    ++simulations;
    return inner(c);
  };
  d::KrigingPolicy reference_policy(spec.policy);
  const auto evaluate =
      d::policy_batch_evaluator(reference_policy, spec.simulate);
  d::MinPlusOneCursor cursor = d::make_min_plus_one_cursor(spec.min_plus);
  while (d::min_plus_one_step(evaluate, spec.min_plus, cursor)) {
  }
  const d::MinPlusOneResult reference =
      d::min_plus_one_result(cursor, spec.min_plus);
  const d::PolicyStats reference_stats = reference_policy.stats();

  s::SessionManager manager;
  const s::SessionId id = manager.create(spec);
  manager.wait(manager.submit(id, 1));
  EXPECT_TRUE(manager.progress(id).resident);
  EXPECT_EQ(manager.resident_count(), 1u);

  manager.wait(manager.submit(id, 1000));
  const s::SessionProgress done = manager.progress(id);
  ASSERT_TRUE(done.finished);
  EXPECT_FALSE(done.resident);
  EXPECT_EQ(manager.resident_count(), 0u);
  EXPECT_TRUE(done.stats == reference_stats);
  expect_identical(manager.min_plus_one_result(id), reference);

  // park() has nothing to do, and a later request completes with no
  // resume and no evaluation; progress, stats and result are unchanged
  // apart from the step call the request executed.
  manager.park(id);
  const std::size_t simulations_before = simulations.load();
  manager.wait(manager.submit(id, 5));
  const s::SessionProgress after = manager.progress(id);
  EXPECT_EQ(simulations.load(), simulations_before);
  EXPECT_TRUE(after.finished);
  EXPECT_FALSE(after.resident);
  EXPECT_EQ(manager.resident_count(), 0u);
  EXPECT_EQ(after.steps, done.steps + 1);
  EXPECT_EQ(after.decisions, done.decisions);
  EXPECT_TRUE(after.stats == done.stats);
  expect_identical(manager.min_plus_one_result(id), reference);
  EXPECT_EQ(manager.stats().parks, 0u);
  EXPECT_EQ(manager.stats().resumes, 0u);
}

TEST(SessionManager, ZeroStepSubmitWarmsSessionOnly) {
  s::SessionManager manager;
  const s::SessionId id = manager.create(min_plus_spec(9));
  manager.wait(manager.submit(id, 0));
  const s::SessionProgress progress = manager.progress(id);
  EXPECT_TRUE(progress.resident);
  EXPECT_EQ(progress.steps, 0u);
  EXPECT_FALSE(progress.finished);
}

}  // namespace
