// Evaluators bound to a kriging policy: the one way to put the paper's
// simulate-or-interpolate decision under an optimizer.
//
// policy_evaluator() is the scalar EvaluateFn for the optimizers'
// one-configuration-at-a-time calls; policy_batch_evaluator() is the
// BatchEvaluateFn for their batched candidate competitions. Both read
// and feed the same KrigingPolicy, so the caller reads the evaluation
// counters from its own policy (KrigingPolicy::stats()).
#pragma once

#include "dse/kriging_policy.hpp"
#include "dse/min_plus_one.hpp"  // EvaluateFn, BatchEvaluateFn

namespace ace::util {
class ThreadPool;
}

namespace ace::dse {

/// An EvaluateFn returning policy.evaluate(c, simulate).value: λ
/// interpolated when the neighbourhood allows, simulated otherwise, and a
/// repeated configuration served from the policy's store. Throws
/// std::invalid_argument on a null simulator. The returned callable
/// references `policy` and copies `simulate`; it must not outlive the
/// policy.
EvaluateFn policy_evaluator(KrigingPolicy& policy, SimulatorFn simulate);

/// Glue for the optimizers' batched candidate competitions: a
/// BatchEvaluateFn that feeds each candidate set through
/// KrigingPolicy::evaluate_batch, fanning pending simulations out to
/// `pool` (inline when null). The returned callable references `policy`
/// and copies `simulate`; it must not outlive either the policy or the
/// pool.
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
