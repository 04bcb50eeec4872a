#include "dse/min_plus_one.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace ace::dse {

namespace {
void validate(const MinPlusOneOptions& options) {
  if (options.nv == 0)
    throw std::invalid_argument("min_plus_one: nv must be positive");
  if (options.w_min > options.w_max)
    throw std::invalid_argument("min_plus_one: w_min must be <= w_max");
  if (options.w_min < 2)
    throw std::invalid_argument("min_plus_one: w_min must be >= 2");
}

/// Phase-1 inner loop for one variable (Algorithm 1): all other variables
/// pinned at Nmax, walk variable i down while the constraint holds, then
/// back off one bit. Each evaluation depends on the previous λ, so the
/// descent hands the evaluator one configuration at a time.
int descend_variable(const BatchEvaluateFn& evaluate,
                     const MinPlusOneOptions& options, std::size_t i,
                     double lambda_at_max) {
  Config w(options.nv, options.w_max);
  int wi = options.w_max;
  double lambda = lambda_at_max;
  while (lambda >= options.lambda_min && wi > options.w_min) {
    --wi;
    w[i] = wi;
    lambda = evaluate({w}).front();
  }
  // Back off one bit if the constraint broke; clamp to Nmax for the case
  // where even the very first decrement (or Nmax itself) violates it.
  return std::min(lambda >= options.lambda_min ? wi : wi + 1, options.w_max);
}
}  // namespace

std::size_t best_candidate(const std::vector<double>& lambdas) {
  double best_lambda = -std::numeric_limits<double>::infinity();
  std::size_t best = lambdas.size();  // Sentinel: none.
  for (std::size_t j = 0; j < lambdas.size(); ++j) {
    if (lambdas[j] > best_lambda) {
      best_lambda = lambdas[j];
      best = j;
    }
  }
  return best;
}

MinPlusOneCursor make_min_plus_one_cursor(const MinPlusOneOptions& options) {
  validate(options);
  MinPlusOneCursor cursor;
  cursor.w_min = Config(options.nv, options.w_max);
  return cursor;
}

MinPlusOneCursor make_phase2_cursor(const MinPlusOneOptions& options,
                                    Config start) {
  validate(options);
  if (start.size() != options.nv)
    throw std::invalid_argument("optimize_word_lengths: start size mismatch");
  MinPlusOneCursor cursor;
  cursor.phase = 2;
  cursor.w_min = start;
  cursor.w = std::move(start);
  return cursor;
}

bool min_plus_one_step(const BatchEvaluateFn& evaluate,
                       const MinPlusOneOptions& options,
                       MinPlusOneCursor& cursor) {
  if (cursor.finished()) return false;

  if (cursor.phase == 1) {
    // Every per-variable descent starts from the same all-Nmax point, so
    // λ(Nmax, …, Nmax) is evaluated once — not once per variable, which
    // would cost Nv − 1 redundant simulations whose duplicate store
    // entries degenerate the kriging support set.
    if (!cursor.have_lambda_at_max) {
      cursor.lambda_at_max =
          evaluate({Config(options.nv, options.w_max)}).front();
      cursor.have_lambda_at_max = true;
    }
    cursor.w_min[cursor.var] =
        descend_variable(evaluate, options, cursor.var, cursor.lambda_at_max);
    if (++cursor.var >= options.nv) {
      cursor.phase = 2;
      cursor.w = cursor.w_min;
    }
    return true;
  }

  if (!cursor.have_lambda) {
    cursor.lambda = evaluate({cursor.w}).front();
    cursor.have_lambda = true;
    if (cursor.lambda >= options.lambda_min ||
        cursor.steps >= options.max_steps)
      cursor.phase = 3;
    return !cursor.finished();
  }

  // Competition between variables: all +1-bit candidates are evaluated as
  // one batch and the most accuracy-improving variable wins; ties go to
  // the lowest variable index (index-ordered reduction).
  std::vector<Config> candidates;
  std::vector<std::size_t> vars;
  for (std::size_t i = 0; i < options.nv; ++i) {
    if (cursor.w[i] >= options.w_max) continue;
    Config candidate = cursor.w;
    ++candidate[i];
    candidates.push_back(std::move(candidate));
    vars.push_back(i);
  }
  if (candidates.empty()) {  // All variables saturated at Nmax.
    cursor.phase = 3;
    return false;
  }
  const std::vector<double> lambdas = evaluate(candidates);
  const std::size_t best = best_candidate(lambdas);
  if (best == lambdas.size()) {
    // No candidate produced a usable λ (every one faulted to -inf or
    // NaN): stop instead of indexing the sentinel — the run degrades to
    // "constraint not met" rather than crashing.
    cursor.phase = 3;
    return false;
  }
  ++cursor.w[vars[best]];
  cursor.lambda = lambdas[best];
  cursor.decisions.push_back(vars[best]);
  ++cursor.steps;
  if (cursor.lambda >= options.lambda_min || cursor.steps >= options.max_steps)
    cursor.phase = 3;
  return !cursor.finished();
}

MinPlusOneResult min_plus_one_result(const MinPlusOneCursor& cursor,
                                     const MinPlusOneOptions& options) {
  MinPlusOneResult result;
  result.w_min = cursor.w_min;
  result.w_res = cursor.phase == 1 ? cursor.w_min : cursor.w;
  result.final_lambda = cursor.lambda;
  result.decisions = cursor.decisions;
  result.constraint_met =
      cursor.have_lambda && cursor.lambda >= options.lambda_min;
  return result;
}

MinPlusOneResult optimize_word_lengths(const BatchEvaluateFn& evaluate,
                                       const MinPlusOneOptions& options,
                                       Config start) {
  MinPlusOneCursor cursor = make_phase2_cursor(options, std::move(start));
  while (min_plus_one_step(evaluate, options, cursor)) {
  }
  return min_plus_one_result(cursor, options);
}

MinPlusOneResult min_plus_one(const BatchEvaluateFn& evaluate,
                              const MinPlusOneOptions& options) {
  MinPlusOneCursor cursor = make_min_plus_one_cursor(options);
  while (min_plus_one_step(evaluate, options, cursor)) {
  }
  return min_plus_one_result(cursor, options);
}

}  // namespace ace::dse
