#include "dse/scheduler.hpp"

#include <stdexcept>

#include "dse/batch_sim.hpp"

namespace ace::dse {

namespace {
std::vector<double> values_of(const std::vector<EvalOutcome>& outcomes) {
  std::vector<double> values;
  values.reserve(outcomes.size());
  for (const EvalOutcome& o : outcomes) values.push_back(o.value);
  return values;
}
}  // namespace

BatchEvaluateFn policy_evaluator(KrigingPolicy& policy, SimulatorFn simulate) {
  if (!simulate)
    throw std::invalid_argument("policy_evaluator: null simulator");
  return [&policy,
          simulate = std::move(simulate)](const std::vector<Config>& batch) {
    std::vector<double> values;
    values.reserve(batch.size());
    for (const Config& c : batch)
      values.push_back(policy.evaluate(c, simulate).value);
    return values;
  };
}

BatchEvaluateFn policy_batch_evaluator(KrigingPolicy& policy,
                                       SimulatorFn simulate,
                                       util::ThreadPool* pool) {
  if (!simulate)
    throw std::invalid_argument("policy_batch_evaluator: null simulator");
  return [&policy, simulate = std::move(simulate),
          pool](const std::vector<Config>& batch) {
    return values_of(policy.evaluate_batch(batch, simulate, pool));
  };
}

BatchEvaluateFn policy_batch_evaluator(KrigingPolicy& policy,
                                       BatchSimulator& backend) {
  return [&policy, &backend](const std::vector<Config>& batch) {
    return values_of(policy.evaluate_batch(batch, backend));
  };
}

}  // namespace ace::dse
