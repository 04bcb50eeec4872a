// Evaluation-order scheduling for batch DSE (extension).
//
// The simulate-or-interpolate policy is order-sensitive: early
// configurations find an empty store and must simulate, late ones reuse
// them. When a batch of configurations is known up front (a GA
// generation, a screening design, a Pareto sweep's candidate set),
// evaluating a well-spread "spine" first maximizes how many of the rest
// can be interpolated. maximin_order() produces that ordering: a
// farthest-point traversal under the policy's L1 metric.
#pragma once

#include <cstddef>
#include <vector>

#include "dse/config.hpp"
#include "dse/kriging_policy.hpp"
#include "dse/min_plus_one.hpp"  // BatchEvaluateFn

namespace ace::util {
class ThreadPool;
}

namespace ace::dse {

/// Farthest-point (maximin) ordering: starts from the batch's L1 medoid,
/// then repeatedly appends the configuration with the largest minimum
/// distance to everything already ordered. Deterministic; ties broken by
/// original index. Returns a permutation of the input.
std::vector<Config> maximin_order(std::vector<Config> batch);

/// Evaluate a batch through a policy in the given order; returns how many
/// were interpolated. Sequential by design: each configuration sees a
/// store already enriched by its predecessors in the batch, which is what
/// makes a maximin ordering pay off.
std::size_t evaluate_batch(KrigingPolicy& policy, const SimulatorFn& simulate,
                           const std::vector<Config>& batch);

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
