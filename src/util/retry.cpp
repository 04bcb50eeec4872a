#include "util/retry.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <exception>

#include "util/contract.hpp"

namespace ace::util {

const char* to_string(CallFault fault) {
  switch (fault) {
    case CallFault::kNone: return "none";
    case CallFault::kThrew: return "threw";
    case CallFault::kNonFinite: return "non-finite";
    case CallFault::kOverDeadline: return "over-deadline";
    case CallFault::kContractViolation: return "contract-violation";
  }
  return "unknown";
}

GuardedCall call_with_retry(const RetryOptions& options,
                            const std::function<double()>& fn) {
  using Clock = std::chrono::steady_clock;
  const std::size_t budget = std::max<std::size_t>(options.max_attempts, 1);
  GuardedCall result;
  for (std::size_t attempt = 0; attempt < budget; ++attempt) {
    ++result.attempts;
    const auto t0 = Clock::now();
    try {
      const double value = fn();
      const double elapsed_ms =
          std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
      if (options.deadline_ms > 0.0 && elapsed_ms > options.deadline_ms) {
        result.fault = CallFault::kOverDeadline;
        ++result.timeouts;
      } else if (!std::isfinite(value)) {
        result.fault = CallFault::kNonFinite;
      } else {
        result.value = value;
        result.fault = CallFault::kNone;
        result.message.clear();
        return result;
      }
    } catch (const ContractViolation& e) {
      // A tripped contract is deterministic — the same inputs will trip it
      // again — so retrying only burns the budget. Classify and stop.
      result.fault = CallFault::kContractViolation;
      result.message = e.what();
      ++result.faulted_attempts;
      return result;
    } catch (const std::exception& e) {
      result.fault = CallFault::kThrew;
      result.message = e.what();
    } catch (...) {
      result.fault = CallFault::kThrew;
      result.message = "non-standard exception";
    }
    ++result.faulted_attempts;
  }
  return result;
}

}  // namespace ace::util
