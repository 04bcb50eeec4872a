// The min+1 bit word-length optimization algorithm (Cantin et al., ISCAS
// 2001) — the paper's Algorithms 1 and 2, with the pseudocode typos fixed
// as documented in DESIGN.md:
//   * phase 1 decreases a variable while the constraint HOLDS and backs
//     off one bit when it breaks;
//   * phase 2 increments the variable whose +1 bit yields the HIGHEST
//     accuracy (middle/steepest ascent) until the constraint is met.
//
// The algorithms are agnostic to how λ is produced: pass an exhaustive
// simulator, a TrajectoryRecorder, or a KrigingPolicy-backed evaluator.
// Phase 2's candidate competition — Nv independent +1-bit evaluations per
// greedy step — can additionally be driven through a BatchEvaluateFn,
// which may fan the underlying simulations out to a thread pool (see
// KrigingPolicy::evaluate_batch / policy_batch_evaluator).
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

#include "dse/config.hpp"

namespace ace::dse {

/// Metric evaluation callable (λ = evaluateAccuracy in the paper).
using EvaluateFn = std::function<double(const Config&)>;

/// Batched metric evaluation: values[i] must correspond to batch[i]. A
/// batch implementation may execute the underlying simulations in
/// parallel, but must return the same values a serial left-to-right
/// evaluation of the batch would produce.
using BatchEvaluateFn =
    std::function<std::vector<double>(const std::vector<Config>&)>;

/// Adapt a scalar evaluator into a batch evaluator that evaluates the
/// candidates serially in index order (the serial reference semantics).
/// The returned callable references `evaluate` — do not outlive it.
BatchEvaluateFn serialize_evaluator(const EvaluateFn& evaluate);

/// The winner of a candidate competition: the index of the largest λ, the
/// lowest index on ties; lambdas.size() when no λ beats -inf (every
/// candidate faulted to -inf or NaN). Both greedy optimizers pick by it.
std::size_t best_candidate(const std::vector<double>& lambdas);

struct MinPlusOneOptions {
  double lambda_min = 0.0;  ///< Accuracy constraint λm (λ >= λm feasible).
  std::size_t nv = 0;       ///< Number of word-length variables.
  int w_max = 16;           ///< Maximum word length (Nmax).
  int w_min = 2;            ///< Minimum word length.
  std::size_t max_steps = 100000;  ///< Safety cap on greedy iterations.
};

struct MinPlusOneResult {
  Config w_min;                       ///< Result of phase 1 (MINKWL).
  Config w_res;                       ///< Final optimized word lengths.
  double final_lambda = 0.0;          ///< λ(w_res).
  std::vector<std::size_t> decisions; ///< Chosen variable jc per greedy step.
  bool constraint_met = false;        ///< λ(w_res) >= λm.
};

/// Phase 1: per-variable minimum word lengths (Algorithm 1). The shared
/// all-Nmax warm-up configuration is evaluated exactly once, not once per
/// variable. Throws std::invalid_argument on nv == 0 or w_min > w_max.
Config determine_min_word_lengths(const EvaluateFn& evaluate,
                                  const MinPlusOneOptions& options);

/// Phase 2: greedy ascent from a starting vector (Algorithm 2).
MinPlusOneResult optimize_word_lengths(const EvaluateFn& evaluate,
                                       const MinPlusOneOptions& options,
                                       Config start);

/// Phase 2 with batched candidate competitions: each greedy step submits
/// all +1-bit candidates as one batch; ties resolve to the lowest variable
/// index, exactly as the scalar overload does.
MinPlusOneResult optimize_word_lengths(const BatchEvaluateFn& evaluate,
                                       const MinPlusOneOptions& options,
                                       Config start);

/// Both phases chained — the full min+1 bit algorithm.
MinPlusOneResult min_plus_one(const EvaluateFn& evaluate,
                              const MinPlusOneOptions& options);

/// Full algorithm with batched phase-2 competitions.
MinPlusOneResult min_plus_one(const BatchEvaluateFn& evaluate,
                              const MinPlusOneOptions& options);

// ---------------------------------------------------------------------------
// Resumable execution (the substrate of dse/checkpoint).
//
// The full algorithm is re-expressed as a cursor plus a step function; the
// batch overloads above run the cursor to completion, so there is exactly
// one implementation of the optimizer semantics. A cursor captured between
// steps, persisted, and stepped again continues bit-identically: each step
// is a pure function of (cursor, evaluator state), and the checkpoint
// module persists both.
// ---------------------------------------------------------------------------

/// Mid-run position of a min+1 execution. Phase 1 advances one variable's
/// full descent per step; phase 2 advances one greedy candidate
/// competition per step.
struct MinPlusOneCursor {
  int phase = 1;              ///< 1 = descents, 2 = greedy ascent, 3 = done.
  std::size_t var = 0;        ///< Phase 1: next variable to descend.
  Config w_min;               ///< Phase-1 result (final for indices < var).
  double lambda_at_max = 0.0; ///< λ(Nmax, …, Nmax), shared by all descents.
  bool have_lambda_at_max = false;
  Config w;                   ///< Phase-2 iterate.
  double lambda = 0.0;        ///< λ(w) once have_lambda.
  bool have_lambda = false;   ///< Phase-2 starting λ evaluated yet?
  std::vector<std::size_t> decisions;
  std::size_t steps = 0;

  bool finished() const { return phase >= 3; }

  friend bool operator==(const MinPlusOneCursor&,
                         const MinPlusOneCursor&) = default;
};

/// Cursor for a full run (phase 1 then phase 2). Validates options.
MinPlusOneCursor make_min_plus_one_cursor(const MinPlusOneOptions& options);

/// Cursor for a phase-2-only run from an explicit start (the
/// optimize_word_lengths semantics). Validates options and start size.
MinPlusOneCursor make_phase2_cursor(const MinPlusOneOptions& options,
                                    Config start);

/// Advance the cursor by one resumable unit. Returns true while the run is
/// unfinished. The evaluation sequence is identical to the historical
/// monolithic loops, so stepping a cursor to completion reproduces their
/// results exactly.
bool min_plus_one_step(const BatchEvaluateFn& evaluate,
                       const MinPlusOneOptions& options,
                       MinPlusOneCursor& cursor);

/// Package a finished (or abandoned) cursor as a result.
MinPlusOneResult min_plus_one_result(const MinPlusOneCursor& cursor,
                                     const MinPlusOneOptions& options);

}  // namespace ace::dse
