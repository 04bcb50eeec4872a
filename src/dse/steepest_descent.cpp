#include "dse/steepest_descent.hpp"

#include <stdexcept>

namespace ace::dse {

namespace {
void validate(const SensitivityOptions& options) {
  if (options.nv == 0)
    throw std::invalid_argument("steepest_descent: nv must be positive");
  if (options.level_min > options.level_max)
    throw std::invalid_argument("steepest_descent: level_min > level_max");
}
}  // namespace

SensitivityCursor make_sensitivity_cursor(const SensitivityOptions& options) {
  validate(options);
  SensitivityCursor cursor;
  cursor.levels = Config(options.nv, options.level_max);
  return cursor;
}

bool steepest_descent_step(const BatchEvaluateFn& evaluate,
                           const SensitivityOptions& options,
                           SensitivityCursor& cursor) {
  if (cursor.finished()) return false;

  if (!cursor.started) {
    cursor.lambda = evaluate({cursor.levels}).front();
    cursor.started = true;
    cursor.feasible = cursor.lambda >= options.lambda_min;
    // Even near-silent error sources break the constraint: nothing to budget.
    if (!cursor.feasible) cursor.done = true;
    return !cursor.finished();
  }

  if (cursor.steps >= options.max_steps) {
    cursor.done = true;
    return false;
  }

  // Try relaxing each source one level as a single candidate batch; keep
  // the least harmful move, ties going to the lowest source index.
  std::vector<Config> candidates;
  std::vector<std::size_t> vars;
  for (std::size_t i = 0; i < options.nv; ++i) {
    if (cursor.levels[i] <= options.level_min) continue;
    Config candidate = cursor.levels;
    --candidate[i];
    candidates.push_back(std::move(candidate));
    vars.push_back(i);
  }
  if (candidates.empty()) {  // Fully relaxed.
    cursor.done = true;
    return false;
  }
  const std::vector<double> lambdas = evaluate(candidates);
  const std::size_t best = best_candidate(lambdas);
  // Every candidate faulted (-inf/NaN), so best is the sentinel and must
  // not be indexed — or the next move breaks quality.
  if (best == lambdas.size() || lambdas[best] < options.lambda_min) {
    cursor.done = true;
    return false;
  }
  --cursor.levels[vars[best]];
  cursor.lambda = lambdas[best];
  cursor.decisions.push_back(vars[best]);
  ++cursor.steps;
  return true;
}

SensitivityResult sensitivity_result(const SensitivityCursor& cursor) {
  SensitivityResult result;
  result.levels = cursor.levels;
  result.final_lambda = cursor.lambda;
  result.decisions = cursor.decisions;
  result.feasible = cursor.feasible;
  return result;
}

SensitivityResult steepest_descent_budgeting(
    const BatchEvaluateFn& evaluate, const SensitivityOptions& options) {
  SensitivityCursor cursor = make_sensitivity_cursor(options);
  while (steepest_descent_step(evaluate, options, cursor)) {
  }
  return sensitivity_result(cursor);
}

}  // namespace ace::dse
