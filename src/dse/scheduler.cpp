#include "dse/scheduler.hpp"

#include <stdexcept>

#include "dse/batch_sim.hpp"

namespace ace::dse {

EvaluateFn policy_evaluator(KrigingPolicy& policy, SimulatorFn simulate) {
  if (!simulate)
    throw std::invalid_argument("policy_evaluator: null simulator");
  return [&policy, simulate = std::move(simulate)](const Config& c) {
    return policy.evaluate(c, simulate).value;
  };
}

BatchEvaluateFn policy_batch_evaluator(KrigingPolicy& policy,
                                       SimulatorFn simulate,
                                       util::ThreadPool* pool) {
  return [&policy, simulate = std::move(simulate),
          pool](const std::vector<Config>& batch) {
    const std::vector<EvalOutcome> outcomes =
        policy.evaluate_batch(batch, simulate, pool);
    std::vector<double> values;
    values.reserve(outcomes.size());
    for (const EvalOutcome& o : outcomes) values.push_back(o.value);
    return values;
  };
}

BatchEvaluateFn policy_batch_evaluator(KrigingPolicy& policy,
                                       BatchSimulator& backend) {
  return [&policy, &backend](const std::vector<Config>& batch) {
    const std::vector<EvalOutcome> outcomes =
        policy.evaluate_batch(batch, backend);
    std::vector<double> values;
    values.reserve(outcomes.size());
    for (const EvalOutcome& o : outcomes) values.push_back(o.value);
    return values;
  };
}

}  // namespace ace::dse
