// Crash-tolerant coordinator: shards one batch of guarded simulations
// across worker transports and merges the results deterministically.
//
// The coordinator is a dse::BatchSimulator, so it plugs into
// KrigingPolicy::evaluate_batch exactly where PooledBatchSimulator does.
// The policy's partition and index-ordered fold are untouched; this class
// only has to honour the backend contract — result[i] is the GuardedCall
// for configs[i], with the same classification and accounting that
// util::call_with_retry would produce in-process. Everything below is in
// service of keeping that contract under arbitrary worker failure:
//
//  * Lease-based assignment. Every dispatch creates a lease with a
//    heartbeat deadline. An expired lease marks the worker as a straggler
//    and makes the task *stealable*: it is re-dispatched to another
//    worker while the original lease stays open, and whichever result
//    arrives first wins. First-wins is safe because a worker's reply is a
//    pure function of (config, retry options, task key) — duplicates are
//    bit-identical by construction.
//  * Bounded re-dispatch. A task is shipped at most three times (a
//    per-task counter that survives worker respawn); a released or
//    expired lease makes it dispatchable again at once.
//  * The decision-identity invariant: a transport failure NEVER produces
//    a task fault. When the dispatch budget is exhausted, or no healthy
//    worker remains and the respawn budget is spent, the task runs on the
//    coordinator's own local simulator — same guarded call, same key —
//    so the merged outcome is indistinguishable from a single-process
//    run. Worker *faults* (the simulator itself threw / went non-finite),
//    by contrast, are real results: they merge as-is and quarantine.
//  * Per-config fault quarantine. A config whose simulation faulted
//    terminally is never re-shipped — later requests replay the recorded
//    outcome. The map outlives batches and re-dispatch, bounding the
//    damage of a persistently faulting config to one simulation.
//  * Respawn budget + graceful degradation. Dead workers are respawned
//    through the TransportFactory until the budget runs out; after that
//    the coordinator degrades to all-local evaluation (degraded() turns
//    true) instead of failing the run.
//
// Threading: one reader thread per worker feeds a single event queue; the
// coordinator thread owns every other piece of state, so the merge order
// is decided in exactly one place. The public API is externally
// synchronized (the policy calls simulate_many under its own mutex).
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "dist/transport.hpp"
#include "dse/batch_sim.hpp"
#include "dse/fault.hpp"
#include "util/retry.hpp"

namespace ace::dist {

struct DistOptions {
  std::size_t workers = 4;
  std::chrono::milliseconds lease_ms{1000};      ///< Heartbeat deadline.
  std::chrono::milliseconds handshake_ms{5000};  ///< HELLO->READY budget.
  std::size_t respawn_budget = 8;   ///< Worker respawns across the run.
  util::RetryOptions retry;  ///< Shipped to workers in HELLO; must match the
                             ///< policy's retry options or stats diverge.
};

/// Counters for the bench and for post-mortems. All transport-level; task
/// outcomes themselves merge into the policy's PolicyStats as usual.
struct DistStats {
  std::size_t tasks = 0;
  std::size_t dispatches = 0;
  std::size_t redispatches = 0;
  std::size_t steals = 0;            ///< Re-dispatches past a live straggler.
  std::size_t lease_expiries = 0;
  std::size_t worker_deaths = 0;
  std::size_t respawns = 0;
  std::size_t spawn_failures = 0;
  std::size_t corrupt_frames = 0;
  std::size_t truncated_frames = 0;
  std::size_t worker_errors = 0;     ///< ERR frames (poisoned worker).
  std::size_t duplicate_results = 0; ///< Steal raced the original; dropped.
  std::size_t stale_results = 0;     ///< Result for a lease no longer open.
  std::size_t local_fallbacks = 0;   ///< Tasks that exhausted the wire.
  std::size_t quarantine_hits = 0;   ///< Replayed recorded fault outcomes.
  std::size_t degraded_batches = 0;
  std::map<dse::FaultCode, std::size_t> redispatch_reasons;
};

class Coordinator final : public dse::BatchSimulator {
 public:
  using TransportFactory = std::function<std::unique_ptr<Transport>()>;

  /// `local` is the canonical simulator — the SAME function the workers
  /// run — used for fallback and degraded evaluation so a local result is
  /// bit-identical to a worker result.
  Coordinator(TransportFactory factory, dse::SimulatorFn local,
              DistOptions options);
  ~Coordinator() override;

  Coordinator(const Coordinator&) = delete;
  Coordinator& operator=(const Coordinator&) = delete;

  std::vector<util::GuardedCall> simulate_many(
      const std::vector<dse::Config>& configs) override;

  const DistStats& stats() const { return stats_; }
  bool degraded() const { return degraded_; }
  std::size_t healthy_workers() const;

  /// Between batches: handle worker events until every live worker has
  /// finished its HELLO->READY handshake or `timeout` passes. A batch ends
  /// as soon as its tasks are done, which can be before a slow worker's
  /// READY has been read.
  void await_handshakes(std::chrono::milliseconds timeout);

 private:
  using Clock = std::chrono::steady_clock;

  struct Event {
    std::size_t slot = 0;
    std::uint64_t incarnation = 0;
    bool eof = false;
    std::string line;
  };

  /// MPSC event queue: reader threads in, coordinator thread out.
  class EventQueue {
   public:
    void push(Event event);
    bool pop(Event& event, Clock::time_point deadline);

   private:
    util::Mutex mutex_{util::lock_order::Rank::kEventQueue,
                       "dist.event_queue"};
    std::condition_variable cv_;
    std::deque<Event> events_ ACE_GUARDED_BY(mutex_);
  };

  struct Slot {
    std::unique_ptr<Transport> transport;
    std::thread reader;
    std::uint64_t incarnation = 0;
    bool alive = false;
    bool ready = false;
    std::size_t strikes = 0;
    std::vector<std::uint64_t> leases;  ///< Open lease ids on this worker.
    Clock::time_point handshake_deadline{};
    bool ever_spawned = false;
  };

  struct Task {
    dse::Config config;
    std::uint64_t key = 0;  ///< ConfigHash — the retry jitter key.
    bool done = false;
    util::GuardedCall result;
    std::size_t dispatches = 0;
    std::size_t open_leases = 0;
  };

  struct Lease {
    std::size_t task = 0;
    std::size_t slot = 0;
    std::uint64_t incarnation = 0;
    Clock::time_point deadline{};
    bool expired = false;
  };

  void ensure_workers(Clock::time_point now);
  void spawn_slot(std::size_t index, Clock::time_point now);
  void mark_dead(std::size_t index, dse::FaultCode reason,
                 std::vector<Task>& tasks);
  void recycle(std::size_t index, dse::FaultCode reason,
               std::vector<Task>& tasks, Clock::time_point now);
  void release_lease(std::uint64_t id, std::vector<Task>& tasks,
                     dse::FaultCode reason);
  void dispatch_ready(std::vector<Task>& tasks, Clock::time_point now);
  void handle_event(const Event& event, std::vector<Task>& tasks,
                    Clock::time_point now);
  void expire_deadlines(std::vector<Task>& tasks, Clock::time_point now);
  void run_local(Task& task);
  void finish_task(Task& task, const util::GuardedCall& call);
  Clock::time_point next_deadline(Clock::time_point now) const;
  bool any_usable_worker() const;
  bool can_spawn() const;

  TransportFactory factory_;
  dse::SimulatorFn local_;
  DistOptions options_;
  std::vector<Slot> slots_;
  EventQueue events_;
  std::unordered_map<std::uint64_t, Lease> open_leases_;
  std::unordered_map<dse::Config, util::GuardedCall, dse::ConfigHash>
      quarantine_;
  std::uint64_t next_lease_id_ = 1;  ///< Monotonic across batches.
  std::size_t pending_ = 0;          ///< Undone tasks in the current batch.
  bool degraded_ = false;
  DistStats stats_;
};

/// Convenience: build the default chaos-free distributed backend over
/// spawned `ace_worker` subprocesses.
std::unique_ptr<Coordinator> make_subprocess_coordinator(
    const std::string& worker_binary, const std::string& kernel,
    dse::SimulatorFn local, const DistOptions& options);

}  // namespace ace::dist
