// Steepest-descent greedy noise budgeting for error-sensitivity analysis
// (the paper's SqueezeNet experiment, after Parashar et al., VLSID 2010).
//
// Configurations are integer *levels*: component e_i maps to an injected
// error power 2^-e_i·P0, so decreasing a level doubles that source's
// power. Starting from near-silent sources, the optimizer repeatedly
// relaxes (decrements) the level whose extra error degrades the quality
// metric least, until the quality constraint λ >= λm would break — giving
// the maximal tolerated error powers for the targeted quality.
#pragma once

#include <cstddef>
#include <vector>

#include "dse/config.hpp"
#include "dse/min_plus_one.hpp"  // BatchEvaluateFn

namespace ace::dse {

struct SensitivityOptions {
  double lambda_min = 0.9;  ///< Quality floor (e.g. classification agreement).
  std::size_t nv = 0;       ///< Number of error sources.
  int level_min = 0;        ///< Most aggressive level (largest power).
  int level_max = 15;       ///< Starting level (smallest power).
  std::size_t max_steps = 100000;  ///< Safety cap.
};

struct SensitivityResult {
  Config levels;                      ///< Final per-source levels.
  double final_lambda = 0.0;          ///< λ at the final configuration.
  std::vector<std::size_t> decisions; ///< Relaxed source per step.
  bool feasible = false;              ///< Start already met the constraint.
};

/// Run the budgeting descent. Each relaxation step submits all candidate
/// -1-level moves as one batch (parallelizable); ties resolve to the
/// lowest source index. Throws std::invalid_argument on nv == 0 or
/// level_min > level_max.
SensitivityResult steepest_descent_budgeting(const BatchEvaluateFn& evaluate,
                                             const SensitivityOptions& options);

// ---------------------------------------------------------------------------
// Resumable execution (the substrate of dse/checkpoint). Mirrors the
// MinPlusOneCursor contract: the entry point above runs the cursor to
// completion, so there is exactly one implementation of the descent.
// ---------------------------------------------------------------------------

/// Mid-run position of a budgeting descent. The first step evaluates the
/// starting configuration; each later step runs one relaxation
/// competition.
struct SensitivityCursor {
  bool started = false;  ///< Starting λ evaluated yet?
  bool done = false;
  Config levels;             ///< Current iterate.
  double lambda = 0.0;       ///< λ(levels) once started.
  bool feasible = false;     ///< Start met the constraint.
  std::vector<std::size_t> decisions;
  std::size_t steps = 0;

  bool finished() const { return done; }

  friend bool operator==(const SensitivityCursor&,
                         const SensitivityCursor&) = default;
};

/// Fresh cursor at the all-level_max start. Validates options.
SensitivityCursor make_sensitivity_cursor(const SensitivityOptions& options);

/// Advance the cursor by one resumable unit. Returns true while the run is
/// unfinished. The evaluation sequence is identical to the monolithic
/// loop, so stepping a cursor to completion reproduces its result exactly.
bool steepest_descent_step(const BatchEvaluateFn& evaluate,
                           const SensitivityOptions& options,
                           SensitivityCursor& cursor);

/// Package a finished (or abandoned) cursor as a result.
SensitivityResult sensitivity_result(const SensitivityCursor& cursor);

}  // namespace ace::dse
