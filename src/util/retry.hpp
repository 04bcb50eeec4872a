// Bounded retry with a per-call deadline watchdog.
//
// Long DSE campaigns (the paper's SqueezeNet run simulated for 98 hours)
// cannot afford to die on one transient simulator fault. call_with_retry()
// guards a single metric evaluation: it classifies each attempt as clean,
// thrown, non-finite, or over-deadline, and retries faulted attempts at
// once up to a bounded budget. A tripped contract is never retried.
//
// The deadline is a *watchdog*, not a pre-emption: a C++ callable cannot be
// safely killed mid-flight, so an over-budget attempt runs to completion
// and is then classified kOverDeadline and its value discarded. This keeps
// one hung-but-eventually-returning simulation from silently stretching a
// batch; truly non-returning simulators are out of scope.
#pragma once

#include <cstddef>
#include <functional>
#include <string>

namespace ace::util {

/// How a guarded call ultimately ended.
enum class CallFault : unsigned char {
  kNone = 0,       ///< Clean: finite value within the deadline.
  kThrew,          ///< The callable threw on the final attempt.
  kNonFinite,      ///< The callable returned NaN/Inf on the final attempt.
  kOverDeadline,   ///< The final attempt exceeded deadline_ms.
  kContractViolation,  ///< The callable tripped a numerical contract
                       ///< (util::ContractViolation) — deterministic, so
                       ///< the attempt is never retried.
};

const char* to_string(CallFault fault);

struct RetryOptions {
  std::size_t max_attempts = 1;    ///< Total tries (1 = no retry).
  double deadline_ms = 0.0;        ///< Per-attempt watchdog budget (0 = off).

  friend bool operator==(const RetryOptions&, const RetryOptions&) = default;
};

/// Result of a guarded call, with enough accounting for fault statistics.
struct GuardedCall {
  double value = 0.0;                      ///< Valid only when ok().
  CallFault fault = CallFault::kNone;      ///< Classification of last attempt.
  std::size_t attempts = 0;                ///< Calls actually made.
  std::size_t faulted_attempts = 0;        ///< Attempts that did not succeed.
  std::size_t timeouts = 0;                ///< Attempts classified over-deadline.
  std::string message;                     ///< what() of the last exception.

  bool ok() const { return fault == CallFault::kNone; }
};

/// Invoke fn up to options.max_attempts times, stopping at the first clean
/// attempt. Never throws from fn's failures — every outcome is reported in
/// the returned GuardedCall.
GuardedCall call_with_retry(const RetryOptions& options,
                            const std::function<double()>& fn);

}  // namespace ace::util
