// The dse::BatchSimulator seam from the policy's side.
//
// KrigingPolicy::evaluate_batch hands its pending simulations to a backend
// whose only obligation is the result[i] <-> configs[i] contract
// (dse/batch_sim.hpp). Everything else — execution order, threads, where
// the calls run — is the backend's business, and none of it may reach a
// decision. These tests drive whole optimizer runs through a backend that
// differs from PooledBatchSimulator in everything the contract leaves
// free (it runs each batch last to first, on a pool of its own) and hold
// the decisions, PolicyStats and checkpoint bytes to the pooled run's;
// they also pin what the policy ships to a backend (pending simulations
// only, each once, never a quarantined configuration) and that a backend
// breaking the contract's result count is a typed error.
#include "dse/batch_sim.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/benchmarks.hpp"
#include "dse/acquisition.hpp"
#include "dse/checkpoint.hpp"
#include "dse/fault.hpp"
#include "dse/fault_injection.hpp"
#include "dse/kriging_policy.hpp"
#include "dse/optimizer.hpp"
#include "dse/scheduler.hpp"
#include "util/retry.hpp"
#include "util/thread_pool.hpp"

namespace {

namespace d = ace::dse;
namespace u = ace::util;

/// Runs each batch last to first on its own pool, and logs every batch
/// shipped to it. Honours the contract: result[i] is the guarded call for
/// configs[i], retried like the pooled backend.
class ReversedBackend final : public d::BatchSimulator {
 public:
  ReversedBackend(d::SimulatorFn simulate, u::RetryOptions retry,
                  u::ThreadPool& pool)
      : simulate_(std::move(simulate)), retry_(retry), pool_(pool) {}

  std::vector<u::GuardedCall> simulate_many(
      const std::vector<d::Config>& configs) override {
    shipped_.push_back(configs);
    const std::size_t n = configs.size();
    std::vector<u::GuardedCall> calls(n);
    pool_.run_indexed(n, [&](std::size_t k) {
      const std::size_t i = n - 1 - k;
      calls[i] = u::call_with_retry(retry_,
                                    [&] { return simulate_(configs[i]); });
    });
    return calls;
  }

  /// Every batch simulate_many received, in call order.
  const std::vector<std::vector<d::Config>>& shipped() const {
    return shipped_;
  }

 private:
  d::SimulatorFn simulate_;
  u::RetryOptions retry_;
  u::ThreadPool& pool_;
  std::vector<std::vector<d::Config>> shipped_;
};

/// Breaks the contract: answers with `extra` more (or, negative, fewer)
/// results than it was given configurations.
class MiscountingBackend final : public d::BatchSimulator {
 public:
  explicit MiscountingBackend(int extra) : extra_(extra) {}

  std::vector<u::GuardedCall> simulate_many(
      const std::vector<d::Config>& configs) override {
    const int n = static_cast<int>(configs.size()) + extra_;
    std::vector<u::GuardedCall> calls(static_cast<std::size_t>(std::max(n, 0)));
    for (u::GuardedCall& call : calls) call.attempts = 1;
    return calls;
  }

 private:
  int extra_;
};

/// Smooth, saturating quality surface: each variable adds less the larger
/// it grows, as an SQNR in word length does. Curved enough that kriging
/// has something to fit, monotone so both optimizers make real choices.
double quality(const d::Config& c) {
  double acc = 0.0;
  for (std::size_t i = 0; i < c.size(); ++i) {
    const double weight = 1.0 + 0.15 * static_cast<double>(i);
    acc += weight * (1.0 - std::exp2(-0.45 * static_cast<double>(c[i])));
  }
  return acc;
}

d::MinPlusOneOptions min_plus_options() {
  d::MinPlusOneOptions options;
  options.nv = 4;
  options.w_min = 2;
  options.w_max = 12;
  options.lambda_min = 4.4;
  return options;
}

d::SensitivityOptions sensitivity_options() {
  d::SensitivityOptions options;
  options.nv = 4;
  options.level_min = 0;
  options.level_max = 12;
  options.lambda_min = 3.9;
  return options;
}

d::PolicyOptions policy_options(d::OptimizerKind kind, d::GateKind gate,
                                std::size_t max_attempts) {
  d::PolicyOptions options;
  options.min_fit_points = 6;
  options.refit_period = 4;
  options.gate = gate;
  options.gate_lambda_min = d::optimizer_lambda_min(
      kind, min_plus_options(), sensitivity_options());
  options.retry.max_attempts = max_attempts;
  return options;
}

/// Everything a run leaves behind that a backend must not change.
struct RunRecord {
  std::vector<std::size_t> decisions;
  d::Config solution;
  std::uint64_t lambda_bits = 0;
  d::PolicyStats stats;
  std::string checkpoint;
};

/// One whole optimizer run through the evaluator `make` builds over a
/// fresh policy.
RunRecord run_optimizer(
    d::OptimizerKind kind, const d::PolicyOptions& options,
    const std::function<d::BatchEvaluateFn(d::KrigingPolicy&)>& make,
    const d::MinPlusOneOptions& min_plus = min_plus_options(),
    const d::SensitivityOptions& sensitivity = sensitivity_options()) {
  d::KrigingPolicy policy(options);
  const d::BatchEvaluateFn evaluate = make(policy);
  d::OptimizerCursor cursor =
      d::make_optimizer_cursor(kind, min_plus, sensitivity);
  while (d::optimizer_step(evaluate, min_plus, sensitivity, cursor)) {
  }
  RunRecord run;
  run.decisions = d::cursor_decisions(cursor);
  run.solution = d::cursor_solution(cursor);
  run.lambda_bits = std::bit_cast<std::uint64_t>(d::cursor_lambda(cursor));
  run.stats = policy.stats();
  run.checkpoint = d::serialize_checkpoint({policy.snapshot(), cursor});
  return run;
}

void expect_identical(const RunRecord& got, const RunRecord& want) {
  EXPECT_EQ(got.decisions, want.decisions);
  EXPECT_EQ(got.solution, want.solution);
  EXPECT_EQ(got.lambda_bits, want.lambda_bits);
  EXPECT_TRUE(got.stats == want.stats);
  EXPECT_EQ(got.checkpoint, want.checkpoint);
}

/// One optimizer run through the pooled backend and one through a
/// ReversedBackend, each simulating through its own injector built from
/// `faults`, so both see the same per-configuration fault schedule.
/// Expects the two runs bit-identical; returns the pooled one.
RunRecord expect_backend_independent(d::OptimizerKind kind,
                                     const d::PolicyOptions& options,
                                     const d::FaultInjectionOptions& faults) {
  u::ThreadPool pool(3);
  const d::FaultInjectingSimulator pooled_sim(quality, faults);
  RunRecord pooled = run_optimizer(kind, options, [&](d::KrigingPolicy& p) {
    return d::policy_batch_evaluator(p, pooled_sim, &pool);
  });
  const d::FaultInjectingSimulator reversed_sim(quality, faults);
  ReversedBackend backend(reversed_sim, options.retry, pool);
  const RunRecord reversed =
      run_optimizer(kind, options, [&](d::KrigingPolicy& p) {
        return d::policy_batch_evaluator(p, backend);
      });
  expect_identical(reversed, pooled);
  EXPECT_FALSE(backend.shipped().empty());
  EXPECT_EQ(pooled_sim.calls(), reversed_sim.calls());
  EXPECT_EQ(pooled_sim.injected_throws(), reversed_sim.injected_throws());
  EXPECT_EQ(pooled_sim.injected_nans(), reversed_sim.injected_nans());
  return pooled;
}

using Case = std::tuple<d::OptimizerKind, d::GateKind>;

class BackendIdentity : public ::testing::TestWithParam<Case> {};

// Without faults, a backend that reorders and parallelises every batch
// leaves the run bit-identical to the pooled one.
TEST_P(BackendIdentity, ReversedBackendMatchesPooledBitwise) {
  const auto [kind, gate] = GetParam();
  const RunRecord pooled =
      expect_backend_independent(kind, policy_options(kind, gate, 1), {});
  // The run exercised both sides of the decision, not only simulation.
  EXPECT_GT(pooled.stats.simulated, 0u);
  EXPECT_GT(pooled.stats.interpolated, 0u);
  EXPECT_FALSE(pooled.decisions.empty());
}

// Transient faults that the retry budget covers are absorbed the same way
// whatever order the backend runs the retries in.
TEST_P(BackendIdentity, TransientFaultsRecoverIdentically) {
  const auto [kind, gate] = GetParam();
  d::FaultInjectionOptions faults;
  faults.seed = 5;
  faults.throw_probability = 0.3;
  faults.nan_probability = 0.2;
  faults.faulty_calls = 1;
  const RunRecord pooled =
      expect_backend_independent(kind, policy_options(kind, gate, 2), faults);
  EXPECT_GT(pooled.stats.simulator_faults, 0u);
  EXPECT_EQ(pooled.stats.quarantined, 0u);

  // The same faults without the retry budget end in quarantines, so the
  // budget — not luck in the schedule — is what kept the runs whole.
  const d::FaultInjectingSimulator unretried_sim(quality, faults);
  const RunRecord unretried = run_optimizer(
      kind, policy_options(kind, gate, 1), [&](d::KrigingPolicy& p) {
        return d::policy_batch_evaluator(p, unretried_sim);
      });
  EXPECT_GT(unretried.stats.quarantined, 0u);
}

std::string optimizer_name(d::OptimizerKind kind) {
  return kind == d::OptimizerKind::kMinPlusOne ? "MinPlusOne"
                                               : "SteepestDescent";
}

std::string case_name(const ::testing::TestParamInfo<Case>& info) {
  const auto [kind, gate] = info.param;
  std::string name = optimizer_name(kind) + "_";
  for (const char ch : std::string(d::gate_name(gate)))
    if (ch != '-') name += ch;
  return name;
}

INSTANTIATE_TEST_SUITE_P(
    OptimizersAndGates, BackendIdentity,
    ::testing::Combine(::testing::Values(d::OptimizerKind::kMinPlusOne,
                                         d::OptimizerKind::kSteepestDescent),
                       ::testing::Values(d::GateKind::kNeighbourCount,
                                         d::GateKind::kVariance,
                                         d::GateKind::kLooCalibrated,
                                         d::GateKind::kSequentialDesign)),
    case_name);

class BackendFaultIdentity
    : public ::testing::TestWithParam<d::OptimizerKind> {};

// Configurations that fault past the retry budget are quarantined at the
// same points of both runs: -inf competitors lose their competitions the
// same way, and the quarantine lands in the checkpoint identically.
TEST_P(BackendFaultIdentity, PersistentFaultsQuarantineIdentically) {
  const d::OptimizerKind kind = GetParam();
  d::FaultInjectionOptions faults;
  faults.seed = 21;
  faults.throw_probability = 0.15;
  faults.faulty_calls = 1000;  // Outlasts the retry budget.
  const RunRecord pooled = expect_backend_independent(
      kind, policy_options(kind, d::GateKind::kNeighbourCount, 2), faults);
  EXPECT_GT(pooled.stats.quarantined, 0u);
}

// Latency spikes change when each of a batch's calls finishes, never which
// result lands in which slot.
TEST_P(BackendFaultIdentity, LatencySpikesDoNotReachDecisions) {
  const d::OptimizerKind kind = GetParam();
  const d::PolicyOptions options =
      policy_options(kind, d::GateKind::kNeighbourCount, 1);
  d::FaultInjectionOptions faults;
  faults.seed = 8;
  faults.latency_probability = 0.3;
  faults.latency_ms = 1;
  const RunRecord pooled = expect_backend_independent(kind, options, faults);
  const RunRecord clean =
      run_optimizer(kind, options, [&](d::KrigingPolicy& p) {
        return d::policy_batch_evaluator(p, quality);
      });
  expect_identical(pooled, clean);
}

INSTANTIATE_TEST_SUITE_P(
    Optimizers, BackendFaultIdentity,
    ::testing::Values(d::OptimizerKind::kMinPlusOne,
                      d::OptimizerKind::kSteepestDescent),
    [](const ::testing::TestParamInfo<d::OptimizerKind>& kind) {
      return optimizer_name(kind.param);
    });

/// A policy that never fits a model, so every miss is simulated.
d::PolicyOptions pure_simulation() {
  d::PolicyOptions options;
  options.min_fit_points = 1000000;
  return options;
}

// A configuration whose every attempt faults is shipped once, quarantined,
// and from then on answered from the quarantine without reaching the
// backend again, in every later batch.
TEST(BatchBackend, PersistentFaultIsQuarantinedAndNeverShippedAgain) {
  const d::Config broken{9, 9, 9};
  d::FaultInjectionOptions faults;
  faults.always_fault = {broken};
  const d::FaultInjectingSimulator simulate(quality, faults);
  d::PolicyOptions options = pure_simulation();
  options.retry.max_attempts = 3;
  u::ThreadPool pool(2);
  ReversedBackend backend(simulate, options.retry, pool);
  d::KrigingPolicy policy(options);

  const auto first =
      policy.evaluate_batch({{1, 2, 3}, broken, {2, 2, 3}}, backend);
  ASSERT_EQ(first.size(), 3u);
  EXPECT_EQ(first[1].fault, d::FaultCode::kSimulatorThrow);
  EXPECT_EQ(first[1].attempts, 3u);  // The whole budget, spent once.
  EXPECT_FALSE(first[0].faulted());
  EXPECT_FALSE(first[2].faulted());
  EXPECT_EQ(simulate.calls(), 5u);

  for (int round = 0; round < 2; ++round) {
    const auto again = policy.evaluate_batch({broken, {3, 2, 3}}, backend);
    ASSERT_EQ(again.size(), 2u);
    EXPECT_EQ(again[0].fault, d::FaultCode::kSimulatorThrow);
    EXPECT_EQ(again[0].source, d::EvalSource::kFaulted);
    EXPECT_EQ(again[0].attempts, 0u);
  }
  ASSERT_EQ(backend.shipped().size(), 3u);
  const std::vector<d::Config> second_ship{{3, 2, 3}};
  EXPECT_EQ(backend.shipped()[1], second_ship);
  EXPECT_TRUE(backend.shipped()[2].empty());  // {3, 2, 3} is stored now.
  EXPECT_EQ(simulate.calls(), 6u);

  const d::PolicyStats stats = policy.stats();
  EXPECT_EQ(stats.quarantined, 1u);
  EXPECT_EQ(stats.simulator_faults, 3u);  // Faulted attempts, not configs.
  EXPECT_EQ(stats.simulated, 3u);
  EXPECT_EQ(stats.total, 7u);
}

// The backend sees the pending simulations only: store hits and in-batch
// duplicates stay with the policy, and each pending configuration is
// shipped once, in first-occurrence order.
TEST(BatchBackend, ShipsEachPendingSimulationOnceInBatchOrder) {
  u::ThreadPool pool(2);
  ReversedBackend backend(quality, {}, pool);
  d::KrigingPolicy policy(pure_simulation());
  (void)policy.evaluate_batch({{4, 4}}, backend);

  const auto outcomes = policy.evaluate_batch(
      {{5, 4}, {4, 4}, {6, 4}, {5, 4}, {4, 5}, {6, 4}}, backend);
  ASSERT_EQ(backend.shipped().size(), 2u);
  const std::vector<d::Config> shipped{{5, 4}, {6, 4}, {4, 5}};
  EXPECT_EQ(backend.shipped()[1], shipped);

  ASSERT_EQ(outcomes.size(), 6u);
  EXPECT_EQ(outcomes[1].source, d::EvalSource::kExactHit);
  EXPECT_EQ(outcomes[3].source, d::EvalSource::kExactHit);
  EXPECT_EQ(outcomes[5].source, d::EvalSource::kExactHit);
  // Each value is its own configuration's, though the backend ran the
  // batch backwards.
  const std::vector<d::Config> batch{{5, 4}, {4, 4}, {6, 4},
                                     {5, 4}, {4, 5}, {6, 4}};
  for (std::size_t i = 0; i < batch.size(); ++i)
    EXPECT_EQ(outcomes[i].value, quality(batch[i])) << i;
}

// Interpolated candidates are answered by the policy and never shipped.
TEST(BatchBackend, InterpolatedCandidatesAreNotShipped) {
  d::PolicyOptions options;
  options.min_fit_points = 4;
  options.refit_period = 4;
  u::ThreadPool pool(2);
  ReversedBackend backend(quality, options.retry, pool);
  d::KrigingPolicy policy(options);
  std::vector<d::Config> lattice;
  for (int x = 2; x <= 8; x += 2)
    for (int y = 2; y <= 8; y += 2) lattice.push_back({x, y});
  (void)policy.evaluate_batch(lattice, backend);

  const std::vector<d::Config> probes{{5, 5}, {3, 5}, {5, 3}};
  const auto outcomes = policy.evaluate_batch(probes, backend);
  ASSERT_EQ(outcomes.size(), probes.size());
  std::vector<d::Config> simulated;
  for (std::size_t i = 0; i < probes.size(); ++i) {
    if (outcomes[i].source == d::EvalSource::kSimulated)
      simulated.push_back(probes[i]);
    else
      EXPECT_EQ(outcomes[i].source, d::EvalSource::kInterpolated) << i;
  }
  EXPECT_LT(simulated.size(), probes.size());  // Something interpolated.
  ASSERT_EQ(backend.shipped().size(), 2u);
  EXPECT_EQ(backend.shipped()[1], simulated);
}

/// A packaged benchmark's optimizer run to completion through the pooled
/// backend on `pool` (inline when null), under the default policy.
RunRecord run_benchmark(const ace::core::ApplicationBenchmark& bench,
                        u::ThreadPool* pool) {
  return run_optimizer(
      bench.optimizer, {},
      [&](d::KrigingPolicy& p) {
        return d::policy_batch_evaluator(p, bench.simulate, pool);
      },
      bench.min_plus_one, bench.sensitivity);
}

/// Whole runs inline and on one- and three-worker pools, where the
/// simulator splits every call's parts across the pool running it: the
/// decisions, PolicyStats and checkpoint bytes are the inline run's.
void expect_split_independent(const ace::core::ApplicationBenchmark& bench) {
  const RunRecord inline_run = run_benchmark(bench, nullptr);
  EXPECT_GT(inline_run.stats.simulated, 0u);
  EXPECT_GT(inline_run.stats.interpolated, 0u);
  for (const std::size_t workers : {1u, 3u}) {
    SCOPED_TRACE(std::to_string(workers) + " workers");
    u::ThreadPool pool(workers);
    expect_identical(run_benchmark(bench, &pool), inline_run);
  }
}

TEST(SplittingSimulator, HevcMinPlusOneMatchesInline) {
  expect_split_independent(ace::core::make_hevc_benchmark());
}

TEST(SplittingSimulator, SqueezeNetSteepestDescentMatchesInline) {
  ace::core::CnnBenchOptions options;
  options.images = 10;
  expect_split_independent(ace::core::make_squeezenet_benchmark(options));
}

class MiscountingBackendTest : public ::testing::TestWithParam<int> {};

// The result[i] <-> configs[i] contract starts with the count: a backend
// that answers too many or too few is a programming error, thrown before
// the policy folds anything.
TEST_P(MiscountingBackendTest, WrongResultCountThrowsLogicError) {
  MiscountingBackend backend(GetParam());
  d::KrigingPolicy policy(pure_simulation());
  EXPECT_THROW((void)policy.evaluate_batch({{1, 1}, {2, 1}}, backend),
               std::logic_error);
  const d::PolicyStats stats = policy.stats();
  EXPECT_EQ(stats.total, 0u);
  EXPECT_EQ(stats.simulated, 0u);
  EXPECT_EQ(policy.store().size(), 0u);

  // The policy stays usable after the rejected batch.
  u::ThreadPool pool(2);
  ReversedBackend good(quality, {}, pool);
  const auto outcomes = policy.evaluate_batch({{1, 1}, {2, 1}}, good);
  ASSERT_EQ(outcomes.size(), 2u);
  EXPECT_EQ(outcomes[0].value, quality({1, 1}));
  EXPECT_EQ(policy.stats().simulated, 2u);
}

INSTANTIATE_TEST_SUITE_P(TooManyAndTooFew, MiscountingBackendTest,
                         ::testing::Values(1, -1),
                         [](const ::testing::TestParamInfo<int>& extra) {
                           return std::string(extra.param > 0 ? "TooMany"
                                                              : "TooFew");
                         });

}  // namespace
