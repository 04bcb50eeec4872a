// SessionManager lock-scope regression tests: resume replay and park
// serialization run OFF the manager lock, so one slow session cannot
// stall the service for everyone else. Named test_serve_* so
// tools/run_sanitizers.sh picks it up for the TSan lane.
#include "serve/session.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <string>
#include <thread>
#include <vector>

#include "dse/min_plus_one.hpp"
#include "dse/scheduler.hpp"

namespace {

namespace d = ace::dse;
namespace s = ace::serve;

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

/// A spec whose mid-run checkpoint holds a large store with frequent
/// refits under a LOO-calibrated gate — restore replays every one of those
/// refits with its LOO pass, so the replay takes real work, which is what
/// the off-lock resume test needs to observe.
s::SessionSpec heavy_spec() {
  s::SessionSpec spec;
  spec.name = "heavy";
  // Small radius + tight refit period: nearly every evaluation simulates
  // (big store) and the replay refits constantly — a deliberately
  // expensive checkpoint.
  spec.policy.distance = 1;
  spec.policy.refit_period = 2;
  spec.policy.gate = d::GateKind::kLooCalibrated;
  spec.optimizer = s::OptimizerKind::kMinPlusOne;
  spec.min_plus.nv = 8;
  spec.min_plus.w_max = 24;
  spec.min_plus.w_min = 2;
  spec.min_plus.lambda_min = 100.0;
  spec.simulate = make_surface(13);
  return spec;
}

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
  EXPECT_EQ(a.final_lambda, b.final_lambda);
}

TEST(ServeConcurrency, SlowResumeDoesNotBlockOtherSessions) {
  s::SessionManagerOptions options;
  options.service_threads = 2;
  s::SessionManager manager(options);

  // Session A: run most of the way (a store of ~290 points and ~70 fit
  // events), then park mid-run. Its resume must replay the whole
  // checkpoint, every refit included (the gate wants LOO). A finished
  // session would not do: it holds no policy and never resumes.
  const s::SessionId a = manager.create(heavy_spec());
  manager.wait(manager.submit(a, 60));
  ASSERT_FALSE(manager.progress(a).finished);
  manager.park(a);
  ASSERT_FALSE(manager.progress(a).resident);

  // Session B: small and already resident.
  const s::SessionId b = manager.create(min_plus_spec(2));
  manager.wait(manager.submit(b, 1));

  // Kick off A's resume. The service thread reserves the resident slot
  // under the lock the moment it claims the request — visible through
  // resident_count() — and only then replays off-lock, so once the count
  // reaches 2 (B + A's reservation) the replay window is open.
  const s::Ticket resume_ticket = manager.submit(a, 0);
  while (manager.resident_count() < 2) std::this_thread::yield();

  // A full submit->wait round trip through B must complete strictly
  // inside that window. With the replay under the manager lock this
  // submit could not even be claimed before the resume ended, and A
  // would read resident here; off-lock, B's request drains on the second
  // service thread in well under the replay's hundreds of milliseconds,
  // and A's policy slot is still empty when the wait returns.
  manager.wait(manager.submit(b, 0));
  EXPECT_FALSE(manager.progress(a).resident);

  manager.wait(resume_ticket);
  EXPECT_TRUE(manager.progress(a).resident);
  EXPECT_EQ(manager.stats().resumes, 1u);
  manager.wait(manager.submit(a, 1000));  // Finish A on the resumed policy.
  expect_identical(manager.min_plus_one_result(a),
                   standalone_min_plus(heavy_spec()));
}

TEST(ServeConcurrency, ParkResumeRacingSubmitsStaysIdentical) {
  // 12 sessions, a resident cache of 3 and explicit park() calls racing
  // the submit stream: every combination of {parked, resuming, resident}
  // meets concurrent submits. Decision identity must survive.
  constexpr std::size_t kSessions = 12;
  s::SessionManagerOptions options;
  options.service_threads = 4;
  options.queue_capacity = 8;
  options.resident_capacity = 3;
  s::SessionManager manager(options);

  std::vector<s::SessionId> ids;
  for (std::size_t i = 0; i < kSessions; ++i)
    ids.push_back(manager.create(min_plus_spec(i)));

  std::vector<std::thread> submitters;
  for (std::size_t t = 0; t < 3; ++t) {
    submitters.emplace_back([&, t] {
      for (int round = 0; round < 4; ++round)
        for (std::size_t i = t; i < kSessions; i += 3)
          manager.wait(manager.submit(ids[i], 1));
    });
  }
  std::thread parker([&] {
    for (int round = 0; round < 3; ++round)
      for (std::size_t i = 0; i < kSessions; i += 2) manager.park(ids[i]);
  });
  for (std::thread& t : submitters) t.join();
  parker.join();
  manager.drain();

  const auto mid_stats = manager.stats();
  EXPECT_GT(mid_stats.parks, 0u);
  EXPECT_GT(mid_stats.resumes, 0u);
  EXPECT_LE(manager.resident_count(), 3u);

  for (std::size_t i = 0; i < kSessions; ++i) {
    manager.wait(manager.submit(ids[i], 1000));
    expect_identical(manager.min_plus_one_result(ids[i]),
                     standalone_min_plus(min_plus_spec(i)));
  }
}

}  // namespace
