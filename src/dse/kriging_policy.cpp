#include "dse/kriging_policy.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <span>
#include <stdexcept>
#include <unordered_map>

#include "dse/batch_sim.hpp"
#include "util/contract.hpp"

namespace ace::dse {

namespace {

constexpr double kFaultedValue = -std::numeric_limits<double>::infinity();

/// Refit-time LOO-CV window: the pass runs over the most recent kLooWindow
/// stored points. Each residual costs O(window²) against the shared
/// factorization, so the full store would make refits O(N³)-ish again.
/// Only paid by gates that want_loo().
constexpr std::size_t kLooWindow = 96;

FaultCode fault_code_of(util::CallFault fault) {
  switch (fault) {
    case util::CallFault::kThrew: return FaultCode::kSimulatorThrow;
    case util::CallFault::kNonFinite: return FaultCode::kNonFinite;
    case util::CallFault::kOverDeadline: return FaultCode::kTimeout;
    case util::CallFault::kContractViolation:
      return FaultCode::kContractViolation;
    case util::CallFault::kNone: break;
  }
  return FaultCode::kNone;
}

}  // namespace

KrigingPolicy::KrigingPolicy(PolicyOptions options)
    : options_(std::move(options)) {
  if (options_.distance < 0)
    throw std::invalid_argument("KrigingPolicy: distance must be >= 0");
  if (options_.variance_gate <= 0.0 || !std::isfinite(options_.variance_gate))
    throw std::invalid_argument("KrigingPolicy: variance_gate must be > 0");
  if (options_.sanity_span < 0.0 || !std::isfinite(options_.sanity_span))
    throw std::invalid_argument(
        "KrigingPolicy: sanity_span must be finite and >= 0");
  if (options_.loo_gate <= 0.0 || !std::isfinite(options_.loo_gate))
    throw std::invalid_argument("KrigingPolicy: loo_gate must be > 0");
  if (options_.seq_confidence <= 0.0 ||
      !std::isfinite(options_.seq_confidence))
    throw std::invalid_argument("KrigingPolicy: seq_confidence must be > 0");
  if (options_.noise_nugget < 0.0 || !std::isfinite(options_.noise_nugget))
    throw std::invalid_argument(
        "KrigingPolicy: noise_nugget must be finite and >= 0");
  gate_ = make_gate(options_);
}

bool KrigingPolicy::refit_model() {
  const util::LockGuard lock(mutex_);
  return refit_model_locked();
}

bool KrigingPolicy::refit_model_locked() {
  // Record the attempt for checkpoint replay: re-running the same attempts
  // at the same store sizes against the rebuilt store reproduces the model
  // and refit clocks exactly (store values are immutable once added on
  // every policy path — exact-match memoization prevents duplicates).
  fit_events_.push_back(store_.size());
  fit_attempted_ = true;
  sims_at_last_attempt_ = store_.size();
  if (store_.size() < 2) {
    ++stats_.failed_refits;
    return false;
  }

  // The field is the stored values themselves, so the variogram only needs
  // the pairs the new simulations introduce — O(k·N) per refit instead of
  // the O(N²) full rebuild.
  std::vector<std::vector<double>> new_points;
  std::vector<double> new_values;
  for (std::size_t i = variogram_.sample_count(); i < store_.size(); ++i) {
    new_points.push_back(to_real(store_.config(i)));
    new_values.push_back(store_.value(i));
  }
  variogram_.extend(new_points, new_values);

  if (variogram_.bins().size() < 2) {
    ++stats_.failed_refits;
    return false;
  }
  model_ = kriging::fit_best(variogram_, options_.fit).model;
  sill_estimate_ = variogram_.value_variance();
  sims_at_last_fit_ = store_.size();
  ++stats_.refits;
  // Rebind the interpolation workspace: the only model clone and γ-memo
  // reset until the next refit.
  kriging::SystemSpec spec{kriging::SystemKind::kOrdinary};
  spec.noise_nugget = options_.noise_nugget;
  if (system_)
    system_->set_model(spec, *model_);
  else
    system_.emplace(spec, *model_);
  run_loo_calibration_locked();
  return true;
}

void KrigingPolicy::run_loo_calibration_locked() {
  if (!gate_->wants_loo() || !model_) return;
  const std::size_t n = store_.size();
  if (n < 2) return;
  const std::size_t first = n > kLooWindow ? n - kLooWindow : 0;
  std::vector<std::vector<double>> points;
  std::vector<double> values;
  points.reserve(n - first);
  values.reserve(n - first);
  for (std::size_t i = first; i < n; ++i) {
    points.push_back(to_real(store_.config(i)));
    values.push_back(store_.value(i));
  }
  kriging::SystemSpec spec{kriging::SystemKind::kOrdinary};
  spec.noise_nugget = options_.noise_nugget;
  kriging::KrigingSystem system(spec, points, values, *model_);
  const auto report = system.loo_residuals();
  if (!report || report->residuals.empty()) return;

  LooSummary summary;
  summary.count = report->residuals.size();
  double abs_sum = 0.0;
  double std_sum = 0.0;
  std::size_t std_count = 0;
  for (std::size_t i = 0; i < report->residuals.size(); ++i) {
    const double abs_e = std::abs(report->residuals[i]);
    abs_sum += abs_e;
    stats_.loo_abs_error.add(abs_e);
    const double var = report->variances[i];
    if (var > 0.0) {
      std_sum += report->residuals[i] * report->residuals[i] / var;
      ++std_count;
    }
  }
  summary.mean_abs_residual = abs_sum / static_cast<double>(summary.count);
  summary.mean_sq_standardized =
      std_count == 0 ? 0.0 : std_sum / static_cast<double>(std_count);
  ++stats_.loo_passes;
  gate_->calibrate(summary);
}

bool KrigingPolicy::model_ready_locked() {
  // Identify (or periodically re-identify) the semi-variogram. A failed
  // attempt resets the refit clock, so the O(N²)-ish work is not retried
  // until another refit_period of simulations has accumulated.
  const bool due =
      !model_ || store_.size() >= sims_at_last_fit_ + options_.refit_period;
  if (due) {
    if (!model_ && store_.size() < options_.min_fit_points) return false;
    const bool attempt_allowed =
        !fit_attempted_ ||
        store_.size() >= sims_at_last_attempt_ + options_.refit_period;
    if (attempt_allowed) (void)refit_model_locked();
    if (!model_) return false;
  }
  return true;
}

std::optional<double> KrigingPolicy::try_interpolate(
    const Config& config, const Neighborhood& neighborhood,
    EvalOutcome& outcome) {
  if (!model_ready_locked()) return std::nullopt;

  // Reload the workspace with the neighbourhood, written straight from the
  // store's columns. The span of the support values feeds the sanity
  // guard.
  double lo = 0.0;
  double hi = 0.0;
  system_->load(neighborhood.count(), config.size(),
                [&](std::span<double> columns, std::size_t stride,
                    std::span<double> values) {
                  store_.gather_columns(neighborhood, columns, stride, values);
                  lo = hi = values.front();
                  for (const double v : values) {
                    lo = std::min(lo, v);
                    hi = std::max(hi, v);
                  }
                });
  query_.assign(config.begin(), config.end());

  const std::size_t factorizations = system_->stats().full_factorizations;
  const bool solved = system_->query(query_, result_);
  stats_.full_factorizations +=
      system_->stats().full_factorizations - factorizations;
  if (!solved) return std::nullopt;

  // Conditioning observability: every solved system reports its pivot-
  // ratio condition estimate and whether the ridge ladder was needed.
  stats_.rcond_per_solve.add(result_.rcond);
  if (result_.regularized) ++stats_.ridge_fallbacks;

  // Sanity guard: an estimate far outside the support values' own
  // interval signals an ill-conditioned system, not information.
  if (options_.sanity_span > 0.0) {
    const double span = std::max(hi - lo, 1e-12);
    if (result_.estimate < lo - options_.sanity_span * span ||
        result_.estimate > hi + options_.sanity_span * span)
      return std::nullopt;
  }

  // Post-solve acquisition decision: the configured gate weighs the
  // solved interpolation's evidence (estimate, kriging variance, field
  // sill) and either stands by it or routes the configuration to
  // simulation — the variance ceiling, LOO-calibrated ceiling and
  // sequential-design criteria all live behind this one seam
  // (dse/acquisition.hpp). Vetoes bump the gate's own counter.
  const double estimate = result_.estimate;
  if (!gate_->accept(GateSolution{estimate, result_.variance, sill_estimate_},
                     stats_))
    return std::nullopt;

  outcome.regularized = result_.regularized;
  ACE_ENSURE(std::isfinite(estimate),
             "kriging interpolation must yield a finite estimate");
  return estimate;
}

void KrigingPolicy::fold_simulation(const Config& config,
                                    const util::GuardedCall& sim,
                                    EvalOutcome& outcome) {
  outcome.attempts = sim.attempts;
  stats_.simulator_faults += sim.faulted_attempts;
  if (sim.attempts > 1) stats_.retries += sim.attempts - 1;
  stats_.timeouts += sim.timeouts;
  if (sim.ok()) {
    outcome.value = sim.value;
    outcome.source = EvalSource::kSimulated;
    store_.add(config, outcome.value);
    ++stats_.simulated;
    return;
  }
  outcome.value = kFaultedValue;
  outcome.source = EvalSource::kFaulted;
  outcome.fault = fault_code_of(sim.fault);
  if (store_.quarantine(config, outcome.fault)) ++stats_.quarantined;
}

EvalOutcome KrigingPolicy::evaluate(const Config& config,
                                    const SimulatorFn& simulate) {
  return evaluate_batch({config}, simulate).front();
}

PolicySnapshot KrigingPolicy::snapshot() const {
  const util::LockGuard lock(mutex_);
  PolicySnapshot snap;
  snap.configs = store_.configs();
  snap.values = store_.values();
  snap.quarantine = store_.quarantine_log();
  snap.fit_events = fit_events_;
  snap.stats = stats_;
  return snap;
}

void KrigingPolicy::restore(const PolicySnapshot& snapshot) {
  const util::LockGuard lock(mutex_);
  if (!store_.empty() || store_.quarantine_count() != 0 || fit_attempted_ ||
      stats_.total != 0)
    throw std::logic_error(
        "KrigingPolicy::restore: policy must be freshly constructed");
  if (snapshot.configs.size() != snapshot.values.size())
    throw std::invalid_argument(
        "KrigingPolicy::restore: configs/values size mismatch");

  // Replay: grow the store in insertion order and walk the recorded fit
  // attempts at the store sizes they originally happened at; the walk
  // keeps the events-vs-store consistency check. Only the last attempt
  // refits, because nothing else an earlier refit leaves behind survives
  // it:
  //  - the variogram extend is chunk-invariant —
  //    extend(A ∪ B) folds the same (j < k) pairs and Welford updates in
  //    the same order as extend(A); extend(B) — so one extend at the last
  //    event leaves the bins and sill exactly where the full replay does;
  //  - the fit, sill and refit clocks depend only on those bins
  //    and the store size, and whether a fit succeeds is monotone in the
  //    store (a bin's pair count depends on distances alone and only
  //    grows as points arrive), so a failed last attempt means every
  //    earlier one failed too;
  //  - the interpolation workspace is rebound at every refit and
  //    reloaded per query, and statistics and fit events are overwritten
  //    from the snapshot below.
  // The exception is a gate that wants_loo(): its calibration folds every
  // refit's LOO pass, so there every recorded attempt replays.
  // Quarantine events replay *before* the adds. In the original run a
  // configuration appearing in both lists was necessarily quarantined
  // first and added cleanly later (a stored configuration is served from
  // the store, so it never re-simulates and never re-faults); replaying in
  // that order lets add() lift the active quarantine exactly as the live
  // run did, leaving the log entry for audit.
  for (const auto& [config, code] : snapshot.quarantine)
    (void)store_.quarantine(config, code);
  const bool replay_every_fit = gate_->wants_loo();
  std::size_t next_event = 0;
  const auto replay_fits = [&] {
    while (next_event < snapshot.fit_events.size() &&
           snapshot.fit_events[next_event] == store_.size()) {
      ++next_event;
      if (replay_every_fit || next_event == snapshot.fit_events.size())
        (void)refit_model_locked();
    }
  };
  replay_fits();
  for (std::size_t i = 0; i < snapshot.configs.size(); ++i) {
    store_.add(snapshot.configs[i], snapshot.values[i]);
    replay_fits();
  }
  if (next_event != snapshot.fit_events.size())
    throw std::invalid_argument(
        "KrigingPolicy::restore: fit events inconsistent with store size");
  // The replayed refits bumped counters and re-recorded fit events; the
  // snapshot's accounting is authoritative.
  stats_ = snapshot.stats;
  fit_events_ = snapshot.fit_events;
}

std::vector<EvalOutcome> KrigingPolicy::evaluate_batch(
    const std::vector<Config>& batch, const SimulatorFn& simulate,
    util::ThreadPool* pool) {
  PooledBatchSimulator backend(simulate, options_.retry, pool);
  return evaluate_batch(batch, backend);
}

std::vector<EvalOutcome> KrigingPolicy::evaluate_batch(
    const std::vector<Config>& batch, BatchSimulator& backend) {
  // Held across all three phases, including the backend simulations of
  // phase 2: the backend only executes guarded simulator calls (no policy
  // state), so holding the policy lock is deadlock-free and keeps the
  // partition, simulate and fold steps one atomic policy transition.
  const util::LockGuard lock(mutex_);
  const std::size_t n = batch.size();
  std::vector<EvalOutcome> outcomes(n);
  if (n == 0) return outcomes;

  enum class Plan : unsigned char {
    kStoreHit, kAlias, kInterpolate, kSimulate, kFault
  };
  /// Phase-1 verdict for one candidate, read back by the phase-3 fold.
  struct Step {
    Plan plan = Plan::kStoreHit;
    bool interp_failed = false;
    FaultCode fault = FaultCode::kNone;  ///< For kFault plans.
    std::size_t slot = 0;  ///< Simulation slot (owner or alias).
  };
  std::vector<Step> steps(n);
  std::vector<std::size_t> owners;  ///< Batch index owning each slot.
  std::unordered_map<Config, std::size_t, ConfigHash> pending;

  // Phase 1 (serial): partition against the store as it stands at batch
  // entry. Decisions are a pure function of (store state, batch order) —
  // independent of how the simulations will later be scheduled.
  for (std::size_t i = 0; i < n; ++i) {
    EvalOutcome& out = outcomes[i];
    Step& step = steps[i];
    if (const auto hit = store_.find(batch[i])) {
      out.value = store_.value(*hit);
      out.cached = true;
      out.source = EvalSource::kExactHit;
      step.plan = Plan::kStoreHit;
      continue;
    }
    if (const auto it = pending.find(batch[i]); it != pending.end()) {
      step.plan = Plan::kAlias;
      step.slot = it->second;
      continue;
    }
    const auto neighborhood = store_.neighbors_within(batch[i],
                                                      options_.distance);
    out.neighbors = neighborhood.count();
    if (gate_->attempt(GateQuery{neighborhood.count()})) {
      if (auto estimate = try_interpolate(batch[i], neighborhood, out)) {
        out.value = *estimate;
        out.interpolated = true;
        out.source = EvalSource::kInterpolated;
        step.plan = Plan::kInterpolate;
        continue;
      }
      step.interp_failed = true;
    }
    // Quarantined candidates never re-simulate: their retry budget is
    // spent, and interpolation (above) was their only remaining path.
    if (const auto code = store_.quarantined(batch[i])) {
      step.plan = Plan::kFault;
      step.fault = step.interp_failed ? FaultCode::kKrigingUnsolvable : *code;
      continue;
    }
    step.plan = Plan::kSimulate;
    step.slot = owners.size();
    pending.emplace(batch[i], owners.size());
    owners.push_back(i);
  }

  // Phase 2: hand the pending simulations to the backend — a thread pool,
  // the distributed coordinator, or inline execution. Each guarded result
  // lands in its own index-addressed slot, so neither the execution
  // schedule nor the physical placement can leak into the results, and a
  // faulted candidate cannot abort its siblings.
  std::vector<Config> pending_configs;
  pending_configs.reserve(owners.size());
  for (const std::size_t owner : owners) pending_configs.push_back(batch[owner]);
  // The backend runs with the policy mutex held by documented contract
  // (BatchSimulator must never call back into the invoking policy); the
  // partition/fold bit-exactness argument depends on the store being
  // frozen across the whole batch.
  // ace-lint: allow(blocking-under-lock)
  std::vector<util::GuardedCall> sims = backend.simulate_many(pending_configs);
  if (sims.size() != owners.size())
    throw std::logic_error(
        "evaluate_batch: backend returned wrong result count");

  // Phase 3 (serial): fold results into the store and the statistics in
  // candidate-index order — a deterministic reduction. Faulted candidates
  // degrade individually (quarantine + -inf value); healthy siblings are
  // folded exactly as in a fault-free batch.
  for (std::size_t i = 0; i < n; ++i) {
    ++stats_.total;
    const Step& step = steps[i];
    switch (step.plan) {
      case Plan::kStoreHit:
        ++stats_.exact_hits;
        break;
      case Plan::kAlias: {
        const util::GuardedCall& sim = sims[step.slot];
        if (sim.ok()) {
          outcomes[i].value = sim.value;
          outcomes[i].cached = true;
          outcomes[i].source = EvalSource::kExactHit;
          ++stats_.exact_hits;
        } else {
          // The owning candidate faulted; the alias shares the outcome,
          // but quarantine and fault accounting belong to the owner.
          outcomes[i].value = kFaultedValue;
          outcomes[i].source = EvalSource::kFaulted;
          outcomes[i].fault = fault_code_of(sim.fault);
        }
        break;
      }
      case Plan::kInterpolate:
        ++stats_.interpolated;
        stats_.neighbors_per_interpolation.add(
            static_cast<double>(outcomes[i].neighbors));
        break;
      case Plan::kFault:
        if (step.interp_failed) ++stats_.kriging_failures;
        outcomes[i].value = kFaultedValue;
        outcomes[i].source = EvalSource::kFaulted;
        outcomes[i].fault = step.fault;
        break;
      case Plan::kSimulate:
        if (step.interp_failed) ++stats_.kriging_failures;
        fold_simulation(batch[i], sims[step.slot], outcomes[i]);
        break;
    }
  }
  return outcomes;
}

}  // namespace ace::dse
