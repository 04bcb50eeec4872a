#include "util/retry.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <limits>
#include <stdexcept>
#include <thread>

namespace {

namespace u = ace::util;

TEST(Retry, CleanCallSucceedsFirstTry) {
  const u::GuardedCall r =
      u::call_with_retry({}, [] { return 42.0; });
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
  const u::GuardedCall r = u::call_with_retry(options, [&] {
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
  const u::GuardedCall r = u::call_with_retry(options, [&]() -> double {
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
      u::call_with_retry({}, []() -> double { throw 17; });
  EXPECT_EQ(r.fault, u::CallFault::kThrew);
  EXPECT_EQ(r.message, "non-standard exception");
}

TEST(Retry, NonFiniteResultsAreFaults) {
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity()}) {
    const u::GuardedCall r = u::call_with_retry({}, [bad] { return bad; });
    EXPECT_FALSE(r.ok());
    EXPECT_EQ(r.fault, u::CallFault::kNonFinite);
    EXPECT_EQ(r.faulted_attempts, 1u);
  }
}

TEST(Retry, NonFiniteThenCleanRecovers) {
  u::RetryOptions options;
  options.max_attempts = 2;
  int calls = 0;
  const u::GuardedCall r = u::call_with_retry(options, [&] {
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
  const u::GuardedCall r = u::call_with_retry(options, [] {
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
  const u::GuardedCall r = u::call_with_retry({}, [] {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    return 7.0;
  });
  EXPECT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r.value, 7.0);
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
  const u::GuardedCall r = u::call_with_retry(options, [&calls] {
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

// A zero budget still makes the one attempt every call needs.
TEST(Retry, ZeroAttemptBudgetStillTriesOnce) {
  u::RetryOptions options;
  options.max_attempts = 0;
  int calls = 0;
  const u::GuardedCall clean =
      u::call_with_retry(options, [&] { return ++calls * 1.0; });
  EXPECT_TRUE(clean.ok());
  EXPECT_DOUBLE_EQ(clean.value, 1.0);
  EXPECT_EQ(clean.attempts, 1u);
  const u::GuardedCall faulted =
      u::call_with_retry(options, [&]() -> double {
        ++calls;
        throw std::runtime_error("once");
      });
  EXPECT_EQ(faulted.fault, u::CallFault::kThrew);
  EXPECT_EQ(faulted.attempts, 1u);
  EXPECT_EQ(faulted.faulted_attempts, 1u);
  EXPECT_EQ(calls, 2);
}

TEST(Retry, FaultNamesAreStable) {
  EXPECT_STREQ(u::to_string(u::CallFault::kNone), "none");
  EXPECT_STREQ(u::to_string(u::CallFault::kThrew), "threw");
  EXPECT_STREQ(u::to_string(u::CallFault::kNonFinite), "non-finite");
  EXPECT_STREQ(u::to_string(u::CallFault::kOverDeadline), "over-deadline");
}

}  // namespace
