#include "dse/optimizer.hpp"

namespace ace::dse {

OptimizerCursor make_optimizer_cursor(OptimizerKind kind,
                                      const MinPlusOneOptions& min_plus,
                                      const SensitivityOptions& sensitivity) {
  if (kind == OptimizerKind::kMinPlusOne)
    return make_min_plus_one_cursor(min_plus);
  return make_sensitivity_cursor(sensitivity);
}

OptimizerCursor select_cursor(OptimizerKind kind, MinPlusOneCursor min_plus,
                              SensitivityCursor sensitivity) {
  if (kind == OptimizerKind::kMinPlusOne) return min_plus;
  return sensitivity;
}

OptimizerKind optimizer_kind(const OptimizerCursor& cursor) {
  return std::holds_alternative<MinPlusOneCursor>(cursor)
             ? OptimizerKind::kMinPlusOne
             : OptimizerKind::kSteepestDescent;
}

double optimizer_lambda_min(OptimizerKind kind,
                            const MinPlusOneOptions& min_plus,
                            const SensitivityOptions& sensitivity) {
  return kind == OptimizerKind::kMinPlusOne ? min_plus.lambda_min
                                            : sensitivity.lambda_min;
}

bool optimizer_step(const BatchEvaluateFn& evaluate,
                    const MinPlusOneOptions& min_plus,
                    const SensitivityOptions& sensitivity,
                    OptimizerCursor& cursor) {
  if (auto* m = std::get_if<MinPlusOneCursor>(&cursor))
    return min_plus_one_step(evaluate, min_plus, *m);
  return steepest_descent_step(evaluate, sensitivity,
                               std::get<SensitivityCursor>(cursor));
}

bool cursor_finished(const OptimizerCursor& cursor) {
  return std::visit([](const auto& c) { return c.finished(); }, cursor);
}

const Config& cursor_solution(const OptimizerCursor& cursor) {
  if (const auto* m = std::get_if<MinPlusOneCursor>(&cursor))
    return m->phase == 1 ? m->w_min : m->w;
  return std::get<SensitivityCursor>(cursor).levels;
}

double cursor_lambda(const OptimizerCursor& cursor) {
  return std::visit([](const auto& c) { return c.lambda; }, cursor);
}

const std::vector<std::size_t>& cursor_decisions(
    const OptimizerCursor& cursor) {
  return std::visit(
      [](const auto& c) -> const std::vector<std::size_t>& {
        return c.decisions;
      },
      cursor);
}

}  // namespace ace::dse
