// The one place that decides which optimizer runs. The paper embeds
// kriging in two: min+1 word-length refinement and steepest-descent error
// budgeting. Drivers (checkpointed runs, service sessions, the Table I
// and divergence experiments) hold one OptimizerCursor and step and read
// it through this module; the alternative the cursor holds is the choice.
#pragma once

#include <cstddef>
#include <variant>
#include <vector>

#include "dse/config.hpp"
#include "dse/min_plus_one.hpp"
#include "dse/steepest_descent.hpp"

namespace ace::dse {

enum class OptimizerKind { kMinPlusOne, kSteepestDescent };

/// Mid-run position of either optimizer.
using OptimizerCursor = std::variant<MinPlusOneCursor, SensitivityCursor>;

/// Fresh cursor of `kind`; only that optimizer's options are read and
/// validated (std::invalid_argument).
OptimizerCursor make_optimizer_cursor(OptimizerKind kind,
                                      const MinPlusOneOptions& min_plus,
                                      const SensitivityOptions& sensitivity);

/// The one of two positions that `kind` runs on.
OptimizerCursor select_cursor(OptimizerKind kind, MinPlusOneCursor min_plus,
                              SensitivityCursor sensitivity);

OptimizerKind optimizer_kind(const OptimizerCursor& cursor);

double optimizer_lambda_min(OptimizerKind kind,
                            const MinPlusOneOptions& min_plus,
                            const SensitivityOptions& sensitivity);

/// min_plus_one_step or steepest_descent_step, whichever the cursor
/// runs, with its options. Returns true while the run is unfinished.
bool optimizer_step(const BatchEvaluateFn& evaluate,
                    const MinPlusOneOptions& min_plus,
                    const SensitivityOptions& sensitivity,
                    OptimizerCursor& cursor);

bool cursor_finished(const OptimizerCursor& cursor);

/// The configuration reached so far (min+1's w_res, the descent's levels),
/// its λ (0 before it is evaluated), and the variable picked per step.
const Config& cursor_solution(const OptimizerCursor& cursor);
double cursor_lambda(const OptimizerCursor& cursor);
const std::vector<std::size_t>& cursor_decisions(const OptimizerCursor& cursor);

}  // namespace ace::dse
