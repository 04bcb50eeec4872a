// Concurrent multi-session DSE evaluation service.
//
// The paper's evaluator runs one optimizer over one store per process;
// this layer owns N independent sessions — each bundling a KrigingPolicy
// (store + variogram state) and a resumable optimizer cursor — and
// multiplexes their evaluation requests onto one shared util::ThreadPool
// (each session's pending simulations go through a
// dse::PooledBatchSimulator over its own simulator).
//
// Determinism contract: requests for one session execute FIFO and one at
// a time, each stepping the session's dse::OptimizerCursor through the
// same optimizer_step a standalone run uses. A session's decision
// sequence is therefore a pure function of its own (store state, cursor)
// and is bit-identical to running that session alone, no matter how many
// sessions interleave on the service threads — the same argument that
// makes evaluate_batch backend-independent.
//
// Session state vs policy state: the *session* is the durable object (its
// spec, cursor and ticket queue live for the manager's lifetime); the
// *policy* — store, variogram bins, fitted model, interpolation
// workspace — is a resident that can be parked at any quiescent point.
// Parking keeps the policy snapshot and cursor as an in-memory
// dse::Checkpoint value (no text), so a parked session is exactly a
// checkpoint the on-disk tooling could write with serialize_checkpoint,
// and resuming replays it bit-identically through KrigingPolicy::restore.
// An LRU cap on resident policies bounds memory: thousands of sessions fit
// in a process with only `resident_capacity` stores live. A session whose
// cursor has finished holds no policy at all — it can never evaluate
// again, so its policy is released (not parked) at the end of the slice
// that finished it.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "dse/checkpoint.hpp"
#include "dse/kriging_policy.hpp"
#include "dse/optimizer.hpp"
#include "util/mutex.hpp"
#include "util/stopwatch.hpp"
#include "util/thread_annotations.hpp"

namespace ace::util {
class ThreadPool;
}

namespace ace::serve {

using SessionId = std::uint64_t;
using Ticket = std::uint64_t;

/// Which resumable optimizer drives a session.
using OptimizerKind = dse::OptimizerKind;

/// Everything needed to (re)build a session's resident state from
/// scratch. The simulator is part of the spec — it is the one piece the
/// checkpoint format cannot carry.
///
/// The acquisition gate is part of `policy` (PolicyOptions::gate and the
/// options that gate reads), so each session picks its own
/// simulate-vs-interpolate rule. Gate calibration state is NOT kept when
/// a session parks: for the LOO-calibrated gates restore replays every
/// recorded refit, which re-runs the LOO calibration passes, so a resumed
/// session's gate is bit-identical to one that never parked.
struct SessionSpec {
  std::string name;
  dse::PolicyOptions policy;
  OptimizerKind optimizer = OptimizerKind::kMinPlusOne;
  dse::MinPlusOneOptions min_plus;
  dse::SensitivityOptions sensitivity;
  dse::SimulatorFn simulate;
};

struct SessionManagerOptions {
  std::size_t service_threads = 2;
  /// Max queued (submitted, not yet started) requests across all
  /// sessions; submit() blocks when full — the backpressure seam.
  std::size_t queue_capacity = 64;
  /// Max sessions with a live KrigingPolicy. Should be >= service_threads
  /// (in-service sessions are never parked, so the cache can transiently
  /// exceed the cap while they run).
  std::size_t resident_capacity = 8;
  /// Shared simulation pool every session's simulations run on (inline
  /// when null).
  util::ThreadPool* pool = nullptr;
};

/// Point-in-time view of one session.
struct SessionProgress {
  bool exists = false;
  bool finished = false;
  bool resident = false;             ///< Policy live (not parked/finished).
  std::size_t steps = 0;             ///< Optimizer steps executed so far.
  std::vector<std::size_t> decisions;
  dse::PolicyStats stats;
};

/// Service-level counters.
struct ServeStats {
  std::size_t sessions_created = 0;
  std::size_t requests = 0;
  std::size_t steps = 0;
  std::size_t parks = 0;
  std::size_t resumes = 0;
  std::size_t backpressure_waits = 0;  ///< submit() calls that blocked.
};

class SessionManager {
 public:
  explicit SessionManager(SessionManagerOptions options = {});

  /// Joins the service threads. Queued requests that have not started are
  /// abandoned — call drain() first if they matter.
  ~SessionManager();

  SessionManager(const SessionManager&) = delete;
  SessionManager& operator=(const SessionManager&) = delete;

  /// Register a session. Cheap: the policy is built lazily on the first
  /// request. Throws std::invalid_argument on a null simulator or on
  /// optimizer options its cursor rejects (nv == 0, for one).
  SessionId create(SessionSpec spec) ACE_EXCLUDES(mutex_);

  /// Queue `steps` optimizer steps for the session (0 = just make it
  /// resident; a finished session stays non-resident). Blocks while the
  /// request queue is at capacity. Requests for one session run FIFO, one
  /// at a time. Throws std::out_of_range on an unknown id.
  Ticket submit(SessionId id, std::size_t steps) ACE_EXCLUDES(mutex_);

  /// Block until the request behind `ticket` has completed (returns
  /// immediately for unknown/already-completed tickets).
  void wait(Ticket ticket) ACE_EXCLUDES(mutex_);

  /// Block until every queued request has completed.
  void drain() ACE_EXCLUDES(mutex_);

  /// Snapshot the session's policy + cursor into its in-memory checkpoint
  /// and release the resident state. Waits for the session to go idle
  /// first. No-op if the session holds no policy (parked, finished or
  /// never started).
  void park(SessionId id) ACE_EXCLUDES(mutex_);

  SessionProgress progress(SessionId id) const ACE_EXCLUDES(mutex_);

  /// Package the session's cursor as an optimizer result (valid mid-run:
  /// reflects progress so far). Throws std::out_of_range on unknown id,
  /// std::logic_error when the session runs the other optimizer.
  dse::MinPlusOneResult min_plus_one_result(SessionId id) const
      ACE_EXCLUDES(mutex_);
  dse::SensitivityResult sensitivity_result(SessionId id) const
      ACE_EXCLUDES(mutex_);

  std::size_t resident_count() const ACE_EXCLUDES(mutex_);
  ServeStats stats() const ACE_EXCLUDES(mutex_);

  /// Per-request submit-to-completion latencies (milliseconds, steady
  /// clock), in completion order — the bench's p50/p99 source.
  std::vector<double> request_latencies_ms() const ACE_EXCLUDES(mutex_);

 private:
  struct Request {
    Ticket ticket = 0;
    std::size_t steps = 0;
    double submitted_ms = 0.0;
  };

  struct Session {
    SessionId id = 0;
    SessionSpec spec;
    dse::OptimizerCursor cursor;
    /// Live policy; null when parked, finished or never started.
    std::unique_ptr<dse::KrigingPolicy> policy;
    /// Checkpoint of a parked session (empty = fresh start, resident or
    /// finished). Resume restores the policy from it; its cursor equals
    /// `cursor`, which nothing steps while parked.
    std::optional<dse::Checkpoint> parked;
    std::deque<Request> pending;
    bool in_service = false;  ///< A service thread is stepping it.
    bool queued = false;      ///< Present in ready_.
    std::size_t last_touch = 0;
    dse::PolicyStats last_stats;  ///< Stats at last service completion.
    std::size_t executed_steps = 0;

    bool finished() const { return dse::cursor_finished(cursor); }
  };

  void service_loop();
  Session& session_locked(SessionId id) const ACE_REQUIRES(mutex_);
  /// Snapshot the policy + cursor into `parked` and release the resident
  /// slot. The snapshot copies the store's rows and renders no text, so
  /// this runs under the lock.
  void park_locked(Session& s) ACE_REQUIRES(mutex_);
  /// Park idle LRU residents until the resident cap holds (sessions in
  /// service or with queued work are never victims).
  void park_victims_locked(const Session* keep) ACE_REQUIRES(mutex_);

  SessionManagerOptions options_;
  util::Stopwatch watch_;

  /// Outermost rank in the lock hierarchy — everything the service
  /// reaches (policy, store, variogram, pool) ranks above it. Nothing
  /// blocking runs under it: restore replay happens off-lock in
  /// service_loop, simulations off-lock via the in_service flag. Parking
  /// (a snapshot copy) runs under it.
  mutable util::Mutex mutex_{util::lock_order::Rank::kSessionManager,
                             "serve.manager"};
  std::condition_variable ready_cv_;  ///< Work available / stopping.
  std::condition_variable space_cv_;  ///< Queue capacity freed.
  std::condition_variable done_cv_;   ///< A request completed.

  std::unordered_map<SessionId, std::unique_ptr<Session>> sessions_
      ACE_GUARDED_BY(mutex_);
  std::deque<SessionId> ready_ ACE_GUARDED_BY(mutex_);
  std::unordered_set<Ticket> outstanding_ ACE_GUARDED_BY(mutex_);
  std::size_t pending_total_ ACE_GUARDED_BY(mutex_) = 0;
  std::size_t in_service_count_ ACE_GUARDED_BY(mutex_) = 0;
  std::size_t resident_ ACE_GUARDED_BY(mutex_) = 0;
  std::size_t clock_ ACE_GUARDED_BY(mutex_) = 0;
  SessionId next_id_ ACE_GUARDED_BY(mutex_) = 0;
  Ticket next_ticket_ ACE_GUARDED_BY(mutex_) = 0;
  bool stopping_ ACE_GUARDED_BY(mutex_) = false;
  ServeStats stats_ ACE_GUARDED_BY(mutex_);
  std::vector<double> latencies_ms_ ACE_GUARDED_BY(mutex_);

  std::vector<std::thread> threads_;
};

}  // namespace ace::serve
