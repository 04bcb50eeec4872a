// Checkpoint/resume for long DSE runs.
//
// A checkpoint is (policy snapshot, optimizer cursor) serialized to a
// versioned text file. Doubles are written as C99 hexfloats ("%a"), so the
// round trip is exact; the policy snapshot is restored by *replay*
// (KrigingPolicy::restore), so the rebuilt store, variogram bins, fitted
// model and refit clocks are bit-identical to the snapshotted
// policy. The replay adds every stored point but refits only at the last
// recorded fit event (at every event under a LOO-calibrated gate, whose
// calibration folds each refit's LOO pass): the incremental variogram
// extend is chunk-invariant and each refit overwrites everything earlier
// ones produced, so the skipped fits are unobservable. A run resumed from
// a checkpoint therefore makes exactly the decisions the uninterrupted run
// would have made.
//
// Files are written atomically (temp file + rename): a crash mid-write
// leaves the previous checkpoint intact.
#pragma once

#include <iosfwd>
#include <optional>
#include <string>

#include "dse/kriging_policy.hpp"
#include "dse/optimizer.hpp"

namespace ace::util {
class ThreadPool;
}

namespace ace::dse {

struct CheckpointOptions {
  /// Checkpoint file location, rewritten after every optimizer step.
  std::string path;
  /// Pause after this many steps in this invocation (0 = run to
  /// completion). A paused run writes a checkpoint and returns its partial
  /// result; calling the same entry point again resumes it. This is how
  /// session-budgeted runs — and the kill/resume tests — stop cleanly.
  std::size_t step_limit = 0;
};

/// On-disk checkpoint payload: the policy snapshot and the optimizer's
/// position. The text names the optimizer ("min_plus_one" or
/// "steepest_descent") and carries one line per optimizer's cursor; the
/// optimizer that does not run has its line written at a default cursor.
struct Checkpoint {
  PolicySnapshot policy;
  OptimizerCursor cursor;
};

/// The versioned text payload save_checkpoint writes, as a string. The
/// session layer parks sessions as in-memory Checkpoint values; this
/// renders one as exactly the file the on-disk tooling would read.
std::string serialize_checkpoint(const Checkpoint& checkpoint);

/// Parse a checkpoint payload from a stream (read to its end). Throws
/// PayloadError (a std::runtime_error): kTruncatedPayload when the payload
/// ends early, kCorruptPayload on a malformed token, an unknown optimizer
/// tag, an unsupported version, a negative or out-of-range integer, or a
/// count the rest of the payload cannot hold.
Checkpoint parse_checkpoint(std::istream& in);

/// Serialize to `path` atomically. Throws std::runtime_error on I/O error.
void save_checkpoint(const std::string& path, const Checkpoint& checkpoint);

/// Load a checkpoint; std::nullopt when the file does not exist. Throws
/// std::runtime_error on a malformed file or unsupported version.
std::optional<Checkpoint> load_checkpoint(const std::string& path);

/// min+1 with a checkpoint written after every step. If `checkpoint.path`
/// holds a checkpoint (from a previous killed/paused run with the same
/// optimizer options and a policy constructed with the same
/// PolicyOptions), the run resumes from it: `policy` must then be freshly
/// constructed, and the combined interrupted-plus-resumed run produces
/// bit-identical results and PolicyStats to an uninterrupted one.
MinPlusOneResult checkpointed_min_plus_one(KrigingPolicy& policy,
                                           const SimulatorFn& simulate,
                                           const MinPlusOneOptions& options,
                                           const CheckpointOptions& checkpoint,
                                           util::ThreadPool* pool = nullptr);

/// Steepest-descent budgeting with a checkpoint written after every step;
/// same resume contract as checkpointed_min_plus_one.
SensitivityResult checkpointed_steepest_descent(
    KrigingPolicy& policy, const SimulatorFn& simulate,
    const SensitivityOptions& options, const CheckpointOptions& checkpoint,
    util::ThreadPool* pool = nullptr);

}  // namespace ace::dse
