// The simulation backend seam of the batch evaluation engine.
//
// KrigingPolicy::evaluate_batch partitions a candidate set into store-hit /
// interpolate / simulate, then hands the *pending simulations* — and only
// those — to a BatchSimulator. The backend owns how the guarded calls
// execute: inline or on a thread pool (PooledBatchSimulator, the default),
// or any other executor that honours the result[i] <-> configs[i] contract
// below, in whatever order it runs them. The policy's partition and its
// index-ordered fold never change with the backend, so the optimizer's
// decision sequence is a pure function of (store state, batch order)
// regardless of where the simulations physically ran.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "dse/config.hpp"
#include "dse/kriging_policy.hpp"  // SimulatorFn
#include "util/retry.hpp"

namespace ace::util {
class ThreadPool;
}

namespace ace::dse {

/// Executes the guarded simulations of one batch. result[i] must be the
/// GuardedCall for configs[i] — same classification, value and attempt
/// accounting that util::call_with_retry(retry, …) around the canonical
/// simulator called on configs[i] would produce, or the policy's merged
/// statistics (and therefore checkpoint files) diverge between backends.
///
/// Called with the policy mutex held: an implementation must never call
/// back into the policy that invoked it.
class BatchSimulator {
 public:
  virtual ~BatchSimulator() = default;
  virtual std::vector<util::GuardedCall> simulate_many(
      const std::vector<Config>& configs) = 0;
};

/// The in-process backend: fan the guarded calls out to a util::ThreadPool
/// (inline when null), each result written to its own index-addressed
/// slot. With a pool every call runs as one of its tasks, a one-call batch
/// included, so a simulator can split its own parts across the workers the
/// batch leaves idle (SimulatorFn). Anything that escapes the retry guard
/// (it captures simulator faults itself) is folded as a thrown-simulator
/// fault, exactly as the historical phase-2 code did. Every SimulatorFn
/// a policy runs passes through this constructor, which throws
/// std::invalid_argument on a null simulator rather than quarantine every
/// configuration as a thrown-simulator fault.
class PooledBatchSimulator final : public BatchSimulator {
 public:
  PooledBatchSimulator(SimulatorFn simulate, util::RetryOptions retry,
                       util::ThreadPool* pool = nullptr);

  std::vector<util::GuardedCall> simulate_many(
      const std::vector<Config>& configs) override;

 private:
  SimulatorFn simulate_;
  util::RetryOptions retry_;
  util::ThreadPool* pool_;
};

}  // namespace ace::dse
