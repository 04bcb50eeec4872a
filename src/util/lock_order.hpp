// Runtime lock-order validation: the global lock hierarchy, and the Debug
// validator that enforces it on every acquisition.
//
// The Clang capability analysis (thread_annotations.hpp) proves *which*
// lock guards *what*; ACE_ACQUIRED_BEFORE/AFTER additionally prove
// ordering between mutexes the same declaration can see. Neither can
// express the whole-program hierarchy — the ordering between a
// serve::SessionManager's mutex and the dse::KrigingPolicy mutexes it
// reaches, say — because neither class can name the other's member. That
// hierarchy lives here instead, as explicit ranks (Rank below, documented
// in DESIGN.md §13), checked at runtime:
//
//  * Per-thread held-lock stack. Acquiring a ranked mutex while holding
//    one of equal or higher rank is reported immediately, on the thread
//    that breaks the hierarchy — no adverse interleaving required.
//  * Global acquisition graph with incremental cycle detection. Every
//    first-time edge (innermost held lock → acquired lock) is recorded
//    with the acquiring thread's held-lock chain; an edge that closes a
//    cycle is reported with BOTH chains — the recorded one and the
//    current one — so the first inversion ever observed across the whole
//    process lifetime is caught, even when the two sides never actually
//    interleave into a deadlock in that run. This is what catches
//    inversions among *unranked* mutexes (tests, scratch code) too.
//
// A violation calls the failure handler: by default it prints the
// diagnosis to stderr and aborts. Tests install a recording handler
// (set_failure_handler) to assert the validator fires without dying.
//
// Cost model: the checks are compiled into a TU only when ACE_LOCK_ORDER
// is 1 (default: Debug on, Release off — same convention as
// util/contract.hpp); the hooks below always exist in the util library so
// a force-enabled TU can link against any build type. Release acquisitions
// compile to exactly the raw std::mutex operations.
#pragma once

#include <cstddef>

namespace ace::util::lock_order {

/// The global lock hierarchy. A thread may only acquire a ranked mutex
/// whose rank is STRICTLY GREATER than every ranked mutex it already
/// holds; two mutexes of the same rank must never be held together.
/// Gaps are deliberate — new subsystems slot in without renumbering.
/// Keep this table in lockstep with DESIGN.md §13.
enum class Rank : int {
  kUnranked = 0,  ///< No rank check; still in the acquisition graph.

  kSessionManager = 10,  ///< serve::SessionManager::mutex_.
  kPolicy = 30,          ///< dse::KrigingPolicy::mutex_.
  kStore = 40,           ///< dse::SimulationStore::mutex_.
  kPool = 62,            ///< util::ThreadPool::mutex_.
  kFaultInjection = 65,  ///< dse::FaultInjectingSimulator state.
};

/// Receives one diagnosed violation: `kind` is a short classification
/// ("lock-rank inversion", "lock-order cycle", "recursive acquisition"),
/// `detail` the full diagnosis including the acquisition chains. The
/// default handler prints both and aborts. A replacement that returns
/// lets execution continue (the acquisition then proceeds) — test-only.
using FailureHandler = void (*)(const char* kind, const char* detail);

/// Install a handler (nullptr restores the default abort handler).
/// Returns the previous handler. Not thread-safe against concurrent
/// violations — install before spawning the threads under test.
FailureHandler set_failure_handler(FailureHandler handler);

/// Total violations diagnosed since process start (or the last reset).
std::size_t violation_count();

/// Test-only: forget the acquisition graph and zero the violation count.
/// Held-lock stacks of live threads are untouched — call it only from
/// quiescent test fixtures.
void reset_for_testing();

/// Hooks called by the util::Mutex wrappers. on_acquire runs BEFORE the
/// raw lock is taken, so an inversion is diagnosed even when the raw
/// acquisition would have deadlocked.
void on_acquire(const void* mutex, int rank, const char* name);
void on_release(const void* mutex);
void on_destroy(const void* mutex);

}  // namespace ace::util::lock_order
