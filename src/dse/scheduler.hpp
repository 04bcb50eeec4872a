// Evaluators bound to a kriging policy: the one way to put the paper's
// simulate-or-interpolate decision under an optimizer.
//
// Both return a BatchEvaluateFn that reads and feeds the same
// KrigingPolicy, so the caller reads the evaluation counters from its own
// policy (KrigingPolicy::stats()). policy_evaluator() puts a batch's
// candidates to the policy one at a time in index order, as the paper's
// Algorithms 1-2 do; policy_batch_evaluator() partitions each candidate
// set against the store as it stands and fans the pending simulations out
// to a pool or backend.
#pragma once

#include "dse/kriging_policy.hpp"
#include "dse/min_plus_one.hpp"  // BatchEvaluateFn

namespace ace::util {
class ThreadPool;
}

namespace ace::dse {

/// A BatchEvaluateFn returning, for each candidate in index order,
/// policy.evaluate(c, simulate).value: λ interpolated when the
/// neighbourhood allows, simulated otherwise, and a repeated configuration
/// served from the policy's store. Each candidate sees the store as the
/// previous ones left it. Throws std::invalid_argument on a null
/// simulator. The returned callable references `policy` and copies
/// `simulate`; it must not outlive the policy.
BatchEvaluateFn policy_evaluator(KrigingPolicy& policy, SimulatorFn simulate);

/// Glue for the optimizers' batched candidate competitions: a
/// BatchEvaluateFn that feeds each candidate set through
/// KrigingPolicy::evaluate_batch, fanning pending simulations out to
/// `pool` (inline when null). Throws std::invalid_argument on a null
/// simulator. The returned callable references `policy` and copies
/// `simulate`; it must not outlive either the policy or the pool.
BatchEvaluateFn policy_batch_evaluator(KrigingPolicy& policy,
                                       SimulatorFn simulate,
                                       util::ThreadPool* pool = nullptr);

/// Backend variant: candidate sets run through the policy with pending
/// simulations executed by `backend`, any BatchSimulator that honours the
/// result[i] <-> configs[i] contract (dse/batch_sim.hpp). References both
/// arguments — must not outlive them.
BatchEvaluateFn policy_batch_evaluator(KrigingPolicy& policy,
                                       class BatchSimulator& backend);

}  // namespace ace::dse
