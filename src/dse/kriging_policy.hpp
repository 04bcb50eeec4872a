// The simulate-or-interpolate policy at the heart of the paper
// (Algorithms 1-2, lines 6-24):
//
//   for a configuration w to evaluate:
//     collect already-simulated configurations within L1 distance d;
//     if more than Nn_min neighbours exist  -> kriging interpolation,
//     else                                  -> simulate and add to Wsim.
//
// The semi-variogram model is identified from the simulated store the
// first time kriging is attempted (once enough points exist) and refitted
// every `refit_period` new simulations; the paper notes identification is
// done "once for a particular metric and application". Refits are
// incremental: the empirical variogram folds only the new points' pairs
// into its bins (O(k·N)) instead of rebuilding all O(N²) pairs.
//
// There is one decision path: evaluate_batch() partitions a candidate set,
// simulates the pending ones through a backend and folds the results in
// candidate order; evaluate() is a batch of one.
//
// Exact re-evaluations are memo hits: a configuration that is already in
// the store is answered from it without a simulation (and without adding
// a duplicate support point; kriging::KrigingSystem additionally dedupes
// coincident support as a backstop for callers outside this policy).
//
// The interpolation hot path runs through one kriging::KrigingSystem
// workspace per policy (phase 1 is serial under the policy lock, so one
// is enough). Each refit rebinds it to the new model; each interpolation
// reloads it with the neighbourhood straight from the store's columns
// (SimulationStore::gather_columns) and solves into a reused result, so a
// steady-state interpolation allocates nothing in the solve. Every solve
// is a fresh factorization of its own neighbourhood, bit-identical to the
// direct path, so a resumed run's counters match an uninterrupted one's.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "dse/acquisition.hpp"
#include "dse/config.hpp"
#include "dse/fault.hpp"
#include "dse/sim_store.hpp"
#include "kriging/empirical_variogram.hpp"
#include "kriging/fit.hpp"
#include "kriging/system.hpp"
#include "kriging/variogram_model.hpp"
#include "util/mutex.hpp"
#include "util/retry.hpp"
#include "util/stats.hpp"
#include "util/thread_annotations.hpp"

namespace ace::util {
class ThreadPool;
}

namespace ace::dse {

/// Deterministic application simulator: configuration -> metric value λ.
/// Batch evaluation may invoke it from worker threads, so it must be safe
/// to call concurrently (the library's simulators are pure functions).
/// A simulator may fan independent parts of one call out over
/// util::ThreadPool::current(), the pool running it (null when none is),
/// with util::parallel_for_indexed_collect; it must write each part to an
/// index-addressed slot and reduce the slots in index order, so λ does not
/// depend on the pool.
using SimulatorFn = std::function<double(const Config&)>;

/// Knobs of the policy: the d and Nn_min of Table I, the variogram
/// schedule, the acquisition gate and the fault model.
struct PolicyOptions {
  int distance = 3;          ///< L1 search radius d.
  std::size_t nn_min = 1;    ///< Interpolate only when neighbours > nn_min.
  std::size_t min_fit_points = 10;  ///< Sims required before fitting γ.
  std::size_t refit_period = 16;    ///< Refit γ every this many new sims.
  kriging::FitOptions fit;          ///< Variogram families to consider.

  /// VarianceGate ceiling (gate == kVariance only; every other gate
  /// ignores it): an interpolation whose kriging variance exceeds
  /// variance_gate · (sample variance of stored λ) falls back to
  /// simulation. Must be finite and > 0.
  double variance_gate = 1.0;

  /// Which simulate-vs-interpolate acquisition gate this policy runs. The
  /// default reproduces the paper's neighbour-count rule bit-for-bit; the
  /// adaptive gates trade the nn_min floor for kriging-variance evidence.
  GateKind gate = GateKind::kNeighbourCount;

  /// The decision threshold the SequentialDesignGate protects (the
  /// optimizer's λ_min / quality floor). Required for that gate; ignored
  /// by every other.
  std::optional<double> gate_lambda_min;

  /// Estimate sanity guard: reject an interpolation that lands more than
  /// `sanity_span` × (support value range) outside the support's value
  /// interval — the signature of an ill-conditioned kriging system whose
  /// moderate-looking weights still amplify into a wild estimate. The
  /// rejected configuration is simulated instead. 0 disables the guard;
  /// negative or non-finite values are rejected at construction.
  double sanity_span = 3.0;

  /// Fault model for simulator calls: bounded immediate retries, plus the
  /// per-call deadline watchdog. The default (one
  /// attempt, no deadline) adds no retries, but faults are still captured
  /// into typed outcomes and quarantined instead of propagating.
  util::RetryOptions retry;
};

/// Outcome of evaluating one configuration through the policy. A faulted
/// evaluation (source == kFaulted) carries value = -infinity so that in
/// the optimizers' "higher λ is better" competitions a faulted candidate
/// can never win — a fault off the decision path leaves the decisions of a
/// fault-free run unchanged.
struct EvalOutcome {
  double value = 0.0;          ///< λ (simulated, interpolated, or stored).
  bool interpolated = false;   ///< True when kriging supplied the value.
  bool cached = false;         ///< True when served from the exact store.
  std::size_t neighbors = 0;   ///< |N| used (support size when interpolated).
  bool regularized = false;    ///< Kriging system needed the ridge fallback.
  EvalSource source = EvalSource::kSimulated;  ///< Provenance of `value`.
  FaultCode fault = FaultCode::kNone;  ///< Terminal fault classification.
  std::size_t attempts = 0;    ///< Simulator calls made for this outcome.

  bool faulted() const { return fault != FaultCode::kNone; }

  friend bool operator==(const EvalOutcome&, const EvalOutcome&) = default;
};

/// Aggregate statistics for Table I, plus the fault counters of the
/// robustness subsystem.
struct PolicyStats {
  std::size_t total = 0;
  std::size_t simulated = 0;
  std::size_t interpolated = 0;
  std::size_t exact_hits = 0;           ///< Served from the store verbatim.
  std::size_t kriging_failures = 0;     ///< Unsolvable system: simulated.
  std::size_t variance_rejections = 0;  ///< Gated by kriging variance.
  std::size_t refits = 0;               ///< Successful variogram (re)fits.
  std::size_t failed_refits = 0;        ///< Attempts with too little data.
  std::size_t simulator_faults = 0;     ///< Faulted simulator attempts.
  std::size_t retries = 0;              ///< Attempts beyond each first try.
  std::size_t timeouts = 0;             ///< Attempts over the deadline.
  std::size_t quarantined = 0;          ///< Configurations quarantined.
  std::size_t checkpoints_written = 0;  ///< By dse::checkpoint entry points.
  /// Conditioning observability (ISSUE 5): ridge_fallbacks counts solved
  /// interpolations that needed the ridge ladder; rcond_per_solve folds
  /// each solve's pivot-ratio condition estimate, so a conditioning
  /// regression shows up as a falling mean/min long before solves fail.
  std::size_t ridge_fallbacks = 0;
  /// Factorizations performed by interpolation solves, singular ridge
  /// rungs included.
  std::size_t full_factorizations = 0;
  /// Per-gate acquisition counters (checkpoint v3): vetoes by the
  /// LOO-calibrated and sequential-design gates (the variance gate's
  /// vetoes stay in variance_rejections), and the refit-time LOO-CV
  /// passes with the |residual| they observed.
  std::size_t loo_rejections = 0;
  std::size_t sequential_rejections = 0;
  std::size_t loo_passes = 0;
  util::RunningStats neighbors_per_interpolation;
  util::RunningStats rcond_per_solve;
  util::RunningStats loo_abs_error;

  friend bool operator==(const PolicyStats&, const PolicyStats&) = default;

  double interpolated_fraction() const {
    return total == 0 ? 0.0
                      : static_cast<double>(interpolated) /
                            static_cast<double>(total);
  }
};

/// Everything needed to reconstruct a KrigingPolicy mid-run, bit-exactly:
/// the store contents in insertion order, the quarantine log, the store
/// sizes at which variogram (re)fits were attempted — replaying the last
/// attempt (all of them under a LOO-calibrated gate) against the rebuilt
/// store reproduces the fitted model and refit clocks exactly — and
/// the statistics. See dse/checkpoint for the on-disk format.
struct PolicySnapshot {
  std::vector<Config> configs;
  std::vector<double> values;
  std::vector<std::pair<Config, FaultCode>> quarantine;
  std::vector<std::size_t> fit_events;  ///< store size at each refit call.
  PolicyStats stats;
};

/// The policy object: owns the simulated-configuration store and the
/// fitted variogram model.
///
/// Thread-safety: the fitted model, refit clocks and statistics are
/// guarded by an annotated policy mutex; every public entry point takes it,
/// so concurrent callers are serialized and the lock discipline is proven
/// by the Clang capability analysis. During evaluate_batch the mutex stays
/// held across the pooled phase-2 simulations — worker threads only invoke
/// the simulator (which therefore must not call back into this policy) and
/// write index-addressed slots, never policy state.
class KrigingPolicy {
 public:
  explicit KrigingPolicy(PolicyOptions options = {});

  /// Evaluate one configuration: answer from the store on an exact match,
  /// interpolate if the neighbourhood is rich enough, otherwise call
  /// `simulate` and record the result in the store. Exactly
  /// evaluate_batch({config}, simulate).
  EvalOutcome evaluate(const Config& config, const SimulatorFn& simulate)
      ACE_EXCLUDES(mutex_);

  /// Evaluate a whole candidate set. The set is partitioned into
  /// store-hit / interpolate / simulate up front, against the store as it
  /// stands at batch entry; pending simulations then run on `pool` (or
  /// inline when null) and are folded into the store and statistics in
  /// candidate-index order. The partition and the reduction are both pure
  /// functions of (store state, batch order), so the outcome sequence is
  /// bit-identical whether or not a pool is supplied. Duplicate candidates
  /// within the batch simulate once and alias the first occurrence. Throws
  /// std::invalid_argument on a null `simulate` (so does evaluate()), even
  /// when no candidate would have reached it.
  std::vector<EvalOutcome> evaluate_batch(const std::vector<Config>& batch,
                                          const SimulatorFn& simulate,
                                          util::ThreadPool* pool = nullptr)
      ACE_EXCLUDES(mutex_);

  /// Backend overload: same partition and index-ordered fold, but the
  /// pending simulations run through `backend` (any BatchSimulator that
  /// honours the result[i] <-> configs[i] contract). The backend is called
  /// with the policy mutex held and must not call back into this policy.
  /// The SimulatorFn overload above is exactly this with a
  /// PooledBatchSimulator over (simulate, options().retry, pool).
  std::vector<EvalOutcome> evaluate_batch(const std::vector<Config>& batch,
                                          class BatchSimulator& backend)
      ACE_EXCLUDES(mutex_);

  /// The store is internally synchronized; no policy lock involved.
  const SimulationStore& store() const { return store_; }

  /// Statistics *snapshot*. Returned by value: a reference into the
  /// mutex-guarded counters would be read after the guard released —
  /// benign under a single caller, a data race the moment another thread
  /// mutates the policy (the multi-session service does exactly that).
  PolicyStats stats() const ACE_EXCLUDES(mutex_) {
    const util::LockGuard lock(mutex_);
    return stats_;
  }
  const PolicyOptions& options() const { return options_; }

  /// Currently fitted variogram (nullptr before first fit). Shared
  /// ownership snapshot: a refit replaces the policy's pointer but cannot
  /// pull the model out from under a caller still holding this handle.
  std::shared_ptr<const kriging::VariogramModel> model() const
      ACE_EXCLUDES(mutex_) {
    const util::LockGuard lock(mutex_);
    return model_;
  }

  /// Force a (re)fit from the current store; returns false when the store
  /// is still too small to produce a variogram. Every attempt — failed or
  /// not — resets the refit clock, so a failing fit is retried only after
  /// another `refit_period` of new simulations instead of on every
  /// evaluation.
  bool refit_model() ACE_EXCLUDES(mutex_);

  /// Capture the policy's full mid-run state for checkpointing.
  PolicySnapshot snapshot() const ACE_EXCLUDES(mutex_);

  /// Rebuild this policy from a snapshot. Must be called on a freshly
  /// constructed policy (same options as the snapshotting one); throws
  /// std::logic_error otherwise. Restoring replays the store in insertion
  /// order and re-runs the last recorded fit attempt — every attempt when
  /// the gate wants_loo(), whose calibration depends on each refit's LOO
  /// pass — so the fitted model, variogram bins and refit clocks
  /// all match the snapshotted policy bit-for-bit. Skipping the earlier
  /// attempts is unobservable: the incremental variogram extend is
  /// chunk-invariant and every other refit product is overwritten by the
  /// last one (see the comment in restore()).
  void restore(const PolicySnapshot& snapshot) ACE_EXCLUDES(mutex_);

  /// Bump the checkpoints_written counter (called by the dse::checkpoint
  /// entry points just before serializing a snapshot, so the on-disk
  /// statistics count the checkpoint that carries them).
  void record_checkpoint() ACE_EXCLUDES(mutex_) {
    const util::LockGuard lock(mutex_);
    ++stats_.checkpoints_written;
  }

  /// The acquisition gate this policy runs (options().gate).
  GateKind gate_kind() const ACE_EXCLUDES(mutex_) {
    const util::LockGuard lock(mutex_);
    return gate_->kind();
  }

  /// The gate's current LOO variance-calibration factor (1 for stateless
  /// gates or before the first LOO pass). Snapshot, for tests/benches.
  double gate_calibration() const ACE_EXCLUDES(mutex_) {
    const util::LockGuard lock(mutex_);
    return gate_->calibration();
  }

 private:
  /// Lock-held body of refit_model() (also the restore replay step).
  bool refit_model_locked() ACE_REQUIRES(mutex_);

  /// Refit-time LOO-CV pass over the windowed store (gates that
  /// want_loo() only): computes every leave-one-out residual from one
  /// factorization (kriging::KrigingSystem::loo_residuals) and feeds the
  /// digest to the gate's calibrate() hook and the loo_* statistics.
  void run_loo_calibration_locked() ACE_REQUIRES(mutex_);

  /// The refit gate at the head of every interpolation attempt: fit (or
  /// periodically refit) the variogram when due, and report whether a
  /// model is available.
  bool model_ready_locked() ACE_REQUIRES(mutex_);

  /// Solve the kriging system over `neighborhood` and run the post-solve
  /// guards; nullopt routes the configuration to simulation.
  std::optional<double> try_interpolate(const Config& config,
                                        const Neighborhood& neighborhood,
                                        EvalOutcome& outcome)
      ACE_REQUIRES(mutex_);

  /// Fold a guarded simulation result into outcome/store/stats.
  /// Quarantines on fault. `config` is the evaluated configuration.
  void fold_simulation(const Config& config, const util::GuardedCall& sim,
                       EvalOutcome& outcome) ACE_REQUIRES(mutex_);

  PolicyOptions options_;  ///< Immutable after construction.
  SimulationStore store_;  ///< Internally synchronized.
  PolicyStats stats_ ACE_GUARDED_BY(mutex_);
  /// The simulate-vs-interpolate decision policy (dse/acquisition.hpp).
  /// Constructed from the immutable options; its online calibration state
  /// mutates only under the policy mutex.
  std::unique_ptr<AcquisitionGate> gate_ ACE_GUARDED_BY(mutex_);
  /// Shared so model() can hand out a lifetime-safe snapshot; the policy
  /// itself treats it as the unique owner (replaced only on refit).
  std::shared_ptr<const kriging::VariogramModel> model_
      ACE_GUARDED_BY(mutex_);
  /// Incrementally extended empirical variogram.
  kriging::EmpiricalVariogram variogram_ ACE_GUARDED_BY(mutex_);
  /// The interpolation workspace: bound to model_ at every successful
  /// refit (empty before the first), reloaded per interpolation. Its lock
  /// ordering is the policy's (policy mutex, then the store's inside
  /// gather_columns).
  std::optional<kriging::KrigingSystem> system_ ACE_GUARDED_BY(mutex_);
  /// Reused query coordinates and solve result of try_interpolate.
  std::vector<double> query_ ACE_GUARDED_BY(mutex_);
  kriging::KrigingResult result_ ACE_GUARDED_BY(mutex_);
  std::size_t sims_at_last_fit_ ACE_GUARDED_BY(mutex_) = 0;
  std::size_t sims_at_last_attempt_ ACE_GUARDED_BY(mutex_) = 0;
  bool fit_attempted_ ACE_GUARDED_BY(mutex_) = false;
  /// Sample variance of the kriged field.
  double sill_estimate_ ACE_GUARDED_BY(mutex_) = 0.0;
  /// Store size at every refit_model() entry, in call order — the replay
  /// script that makes snapshot()/restore() bit-exact (and the consistency
  /// check restore() runs against the store).
  std::vector<std::size_t> fit_events_ ACE_GUARDED_BY(mutex_);
  mutable util::Mutex mutex_{util::lock_order::Rank::kPolicy, "dse.policy"};
};

}  // namespace ace::dse
