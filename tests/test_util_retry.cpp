#include "util/retry.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <thread>
#include <vector>

namespace {

namespace u = ace::util;

TEST(Retry, CleanCallSucceedsFirstTry) {
  const u::GuardedCall r =
      u::call_with_retry({}, 7, [] { return 42.0; });
  EXPECT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r.value, 42.0);
  EXPECT_EQ(r.fault, u::CallFault::kNone);
  EXPECT_EQ(r.attempts, 1u);
  EXPECT_EQ(r.faulted_attempts, 0u);
  EXPECT_EQ(r.timeouts, 0u);
  EXPECT_TRUE(r.message.empty());
}

TEST(Retry, TransientThrowIsRetriedToSuccess) {
  u::RetryOptions options;
  options.max_attempts = 5;
  int calls = 0;
  const u::GuardedCall r = u::call_with_retry(options, 7, [&] {
    if (++calls < 3) throw std::runtime_error("transient");
    return 1.5;
  });
  EXPECT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r.value, 1.5);
  EXPECT_EQ(r.attempts, 3u);
  EXPECT_EQ(r.faulted_attempts, 2u);
  // Success clears the stale failure message from earlier attempts.
  EXPECT_TRUE(r.message.empty());
}

TEST(Retry, ExhaustedBudgetReportsThrowWithMessage) {
  u::RetryOptions options;
  options.max_attempts = 3;
  int calls = 0;
  const u::GuardedCall r = u::call_with_retry(options, 7, [&]() -> double {
    ++calls;
    throw std::runtime_error("persistent failure");
  });
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.fault, u::CallFault::kThrew);
  EXPECT_EQ(r.attempts, 3u);
  EXPECT_EQ(r.faulted_attempts, 3u);
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(r.message, "persistent failure");
}

TEST(Retry, NonStdExceptionIsCapturedToo) {
  const u::GuardedCall r =
      u::call_with_retry({}, 0, []() -> double { throw 17; });
  EXPECT_EQ(r.fault, u::CallFault::kThrew);
  EXPECT_EQ(r.message, "non-standard exception");
}

TEST(Retry, NonFiniteResultsAreFaults) {
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity()}) {
    const u::GuardedCall r = u::call_with_retry({}, 3, [bad] { return bad; });
    EXPECT_FALSE(r.ok());
    EXPECT_EQ(r.fault, u::CallFault::kNonFinite);
    EXPECT_EQ(r.faulted_attempts, 1u);
  }
}

TEST(Retry, NonFiniteThenCleanRecovers) {
  u::RetryOptions options;
  options.max_attempts = 2;
  int calls = 0;
  const u::GuardedCall r = u::call_with_retry(options, 3, [&] {
    return ++calls == 1 ? std::numeric_limits<double>::quiet_NaN() : 2.5;
  });
  EXPECT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r.value, 2.5);
  EXPECT_EQ(r.faulted_attempts, 1u);
}

TEST(Retry, DeadlineClassifiesSlowCallAndDiscardsValue) {
  u::RetryOptions options;
  options.max_attempts = 2;
  options.deadline_ms = 0.5;
  const u::GuardedCall r = u::call_with_retry(options, 11, [] {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    return 99.0;  // Computed, but over budget: must be discarded.
  });
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.fault, u::CallFault::kOverDeadline);
  EXPECT_EQ(r.timeouts, 2u);
  EXPECT_EQ(r.attempts, 2u);
  EXPECT_DOUBLE_EQ(r.value, 0.0);
}

TEST(Retry, DeadlineZeroDisablesWatchdog) {
  const u::GuardedCall r = u::call_with_retry({}, 11, [] {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    return 7.0;
  });
  EXPECT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r.value, 7.0);
}

TEST(Retry, BackoffIsDeterministicBoundedAndGrows) {
  u::RetryOptions options;
  options.base_backoff_ms = 1.0;
  options.backoff_multiplier = 2.0;
  options.max_backoff_ms = 16.0;
  options.jitter_fraction = 0.25;

  for (const std::uint64_t key : {0ull, 42ull, 0xdeadbeefull}) {
    for (std::size_t k = 0; k < 10; ++k) {
      const double d1 = u::backoff_delay_ms(options, key, k);
      const double d2 = u::backoff_delay_ms(options, key, k);
      EXPECT_DOUBLE_EQ(d1, d2);  // Pure function of (options, key, k).
      const double nominal = std::min(1.0 * std::pow(2.0, static_cast<double>(k)),
                                      options.max_backoff_ms);
      EXPECT_GE(d1, nominal);
      EXPECT_LE(d1, nominal * (1.0 + options.jitter_fraction));
    }
  }
  // Different task keys draw different jitter (with overwhelming
  // probability for these particular keys).
  EXPECT_NE(u::backoff_delay_ms(options, 1, 0),
            u::backoff_delay_ms(options, 2, 0));
  // Zero base means no sleeping at all, jitter included.
  u::RetryOptions immediate;
  immediate.base_backoff_ms = 0.0;
  EXPECT_DOUBLE_EQ(u::backoff_delay_ms(immediate, 5, 3), 0.0);
}

// The watchdog is post-hoc (a C++ callable cannot be pre-empted), so the
// interesting deadline case is the *final* attempt stalling after earlier
// attempts failed fast: the stall must still be classified kOverDeadline
// with exact attempt accounting, and the computed value discarded.
TEST(Retry, WatchdogCoversStalledFinalAttempt) {
  u::RetryOptions options;
  options.max_attempts = 3;
  options.deadline_ms = 1.0;
  std::size_t calls = 0;
  const u::GuardedCall r = u::call_with_retry(options, 17, [&calls] {
    if (++calls < 3) throw std::runtime_error("fast transient");
    std::this_thread::sleep_for(std::chrono::milliseconds(8));
    return 123.0;  // Stalled final attempt: computed but over budget.
  });
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.fault, u::CallFault::kOverDeadline);
  EXPECT_EQ(r.attempts, 3u);
  EXPECT_EQ(r.faulted_attempts, 3u);
  EXPECT_EQ(r.timeouts, 1u);  // Only the stalled attempt, not the throws.
  EXPECT_DOUBLE_EQ(r.value, 0.0);
}

// The whole backoff schedule must be a pure function of the jitter seed:
// a fixed seed reproduces every delay bit-for-bit, a different seed moves
// them. This is what makes a retried batch's schedule replayable.
TEST(Retry, JitterScheduleIsDeterministicPerSeed) {
  u::RetryOptions options;
  options.base_backoff_ms = 2.0;
  options.jitter_fraction = 0.5;
  options.jitter_seed = 0xfeedull;

  std::vector<double> schedule;
  for (std::size_t k = 0; k < 6; ++k)
    schedule.push_back(u::backoff_delay_ms(options, 99, k));
  for (std::size_t k = 0; k < 6; ++k)
    EXPECT_DOUBLE_EQ(schedule[k], u::backoff_delay_ms(options, 99, k));

  u::RetryOptions reseeded = options;
  reseeded.jitter_seed = 0xbeefull;
  bool any_differs = false;
  for (std::size_t k = 0; k < 6; ++k)
    any_differs |= u::backoff_delay_ms(reseeded, 99, k) != schedule[k];
  EXPECT_TRUE(any_differs);
}

TEST(Retry, FaultNamesAreStable) {
  EXPECT_STREQ(u::to_string(u::CallFault::kNone), "none");
  EXPECT_STREQ(u::to_string(u::CallFault::kThrew), "threw");
  EXPECT_STREQ(u::to_string(u::CallFault::kNonFinite), "non-finite");
  EXPECT_STREQ(u::to_string(u::CallFault::kOverDeadline), "over-deadline");
}

}  // namespace
