// Coordinator crash-tolerance tests over in-process workers.
//
// Everything here asserts the same invariant from different failure
// angles: whatever the transports do — die, stall, corrupt, vanish — the
// merged GuardedCalls are bit-identical to a single-process reference,
// because that is what keeps the optimizer's decision sequence intact.
#include "dist/coordinator.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <vector>

#include "dist/chaos.hpp"
#include "dist/in_process.hpp"
#include "dse/fault_injection.hpp"

namespace {

namespace dist = ace::dist;
namespace d = ace::dse;
namespace u = ace::util;

double lattice(const d::Config& w) {
  double acc = 0.0;
  for (std::size_t i = 0; i < w.size(); ++i)
    acc += (0.4 + 0.03 * static_cast<double>(i)) * static_cast<double>(w[i]);
  return acc;
}

std::vector<d::Config> workload(int n) {
  std::vector<d::Config> configs;
  for (int i = 0; i < n; ++i) configs.push_back({i % 7, i / 7, 3});
  return configs;
}

/// The single-process reference: exactly what PooledBatchSimulator would
/// produce for the same configs, retry options and simulator.
std::vector<u::GuardedCall> reference(const std::vector<d::Config>& configs,
                                      const u::RetryOptions& retry,
                                      const d::SimulatorFn& simulate) {
  std::vector<u::GuardedCall> calls;
  calls.reserve(configs.size());
  for (const d::Config& config : configs)
    calls.push_back(u::call_with_retry(
        retry, d::ConfigHash{}(config),
        [&simulate, &config] { return simulate(config); }));
  return calls;
}

void expect_bit_identical(const std::vector<u::GuardedCall>& got,
                          const std::vector<u::GuardedCall>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got[i].value),
              std::bit_cast<std::uint64_t>(want[i].value))
        << "value diverged at " << i;
    EXPECT_EQ(got[i].fault, want[i].fault) << i;
    EXPECT_EQ(got[i].attempts, want[i].attempts) << i;
    EXPECT_EQ(got[i].faulted_attempts, want[i].faulted_attempts) << i;
    EXPECT_EQ(got[i].timeouts, want[i].timeouts) << i;
    EXPECT_EQ(got[i].message, want[i].message) << i;
  }
}

/// Factory of chaos-wrapped in-process workers; each spawn draws a fresh
/// seed so respawned workers do not fail in lockstep.
dist::Coordinator::TransportFactory chaos_factory(d::SimulatorFn kernel,
                                                  dist::ChaosOptions chaos) {
  auto next = std::make_shared<std::atomic<std::uint64_t>>(0);
  return [kernel = std::move(kernel), chaos,
          next]() -> std::unique_ptr<dist::Transport> {
    dist::ChaosOptions options = chaos;
    options.seed = chaos.seed + 1000 * next->fetch_add(1);
    return std::make_unique<dist::FaultInjectingTransport>(
        std::make_unique<dist::InProcessTransport>(kernel), options);
  };
}

dist::DistOptions small_cluster() {
  dist::DistOptions options;
  options.workers = 3;
  options.lease_ms = std::chrono::milliseconds(500);
  options.handshake_ms = std::chrono::milliseconds(2000);
  options.respawn_budget = 64;
  options.retry.max_attempts = 2;
  return options;
}

TEST(DistCoordinator, HappyPathMatchesLocalBitwise) {
  const auto configs = workload(40);
  const dist::DistOptions options = small_cluster();
  dist::Coordinator coordinator(chaos_factory(lattice, {}), lattice, options);
  const auto got = coordinator.simulate_many(configs);
  expect_bit_identical(got, reference(configs, options.retry, lattice));
  EXPECT_EQ(coordinator.stats().tasks, configs.size());
  EXPECT_EQ(coordinator.stats().dispatches, configs.size());
  EXPECT_EQ(coordinator.stats().worker_deaths, 0u);
  EXPECT_EQ(coordinator.stats().local_fallbacks, 0u);
  EXPECT_FALSE(coordinator.degraded());
  // The batch can finish before every worker's READY has been read.
  coordinator.await_handshakes(options.handshake_ms);
  EXPECT_EQ(coordinator.healthy_workers(), options.workers);
}

TEST(DistCoordinator, RandomWorkerKillsRecoverIdentically) {
  const auto configs = workload(60);
  const dist::DistOptions options = small_cluster();
  dist::ChaosOptions chaos;
  chaos.seed = 7;
  chaos.kill_on_send = 0.08;
  chaos.kill_on_recv = 0.08;
  dist::Coordinator coordinator(chaos_factory(lattice, chaos), lattice,
                                options);
  const auto got = coordinator.simulate_many(configs);
  expect_bit_identical(got, reference(configs, options.retry, lattice));
  EXPECT_GT(coordinator.stats().worker_deaths, 0u);
  EXPECT_GT(coordinator.stats().respawns, 0u);
}

TEST(DistCoordinator, GarbageFramesAreRejectedNotMerged) {
  const auto configs = workload(60);
  const dist::DistOptions options = small_cluster();
  dist::ChaosOptions chaos;
  chaos.seed = 11;
  chaos.garbage = 0.15;
  dist::Coordinator coordinator(chaos_factory(lattice, chaos), lattice,
                                options);
  const auto got = coordinator.simulate_many(configs);
  expect_bit_identical(got, reference(configs, options.retry, lattice));
  EXPECT_GT(coordinator.stats().corrupt_frames +
                coordinator.stats().truncated_frames,
            0u);
}

TEST(DistCoordinator, StragglersExpireAndWorkIsStolen) {
  const auto configs = workload(40);
  dist::DistOptions options = small_cluster();
  options.lease_ms = std::chrono::milliseconds(40);
  dist::ChaosOptions chaos;
  chaos.seed = 13;
  chaos.stall = 0.25;
  chaos.stall_hold = std::chrono::milliseconds(250);
  dist::Coordinator coordinator(chaos_factory(lattice, chaos), lattice,
                                options);
  const auto got = coordinator.simulate_many(configs);
  expect_bit_identical(got, reference(configs, options.retry, lattice));
  EXPECT_GT(coordinator.stats().lease_expiries, 0u);
}

TEST(DistCoordinator, PersistentFaultsQuarantineAcrossBatches) {
  // Third coordinate 9 ≠ 3 keeps this distinct from every workload() config.
  const d::Config broken{1, 0, 9};
  d::FaultInjectionOptions faults;
  faults.always_fault = {broken};
  faults.throw_probability = 0.0;  // Only the always_fault list faults.
  const dist::DistOptions options = small_cluster();
  // Worker-side and local simulators must be the same function: build two
  // instances with identical options (their shared counters differ, but
  // always_fault behaviour is a pure function of the config).
  const d::FaultInjectingSimulator worker_sim(lattice, faults);
  const d::FaultInjectingSimulator local_sim(lattice, faults);
  dist::Coordinator coordinator(chaos_factory(worker_sim, {}), local_sim,
                                options);

  std::vector<d::Config> batch = workload(10);
  batch.push_back(broken);
  const auto first = coordinator.simulate_many(batch);
  ASSERT_EQ(first.size(), batch.size());
  EXPECT_FALSE(first.back().ok());
  EXPECT_EQ(coordinator.stats().quarantine_hits, 0u);
  const std::size_t dispatches_after_first = coordinator.stats().dispatches;

  // Same batch again: the broken config must be served from quarantine —
  // identical recorded outcome, zero new dispatches for it.
  const auto second = coordinator.simulate_many(batch);
  expect_bit_identical(second, first);
  EXPECT_EQ(coordinator.stats().quarantine_hits, 1u);
  EXPECT_EQ(coordinator.stats().dispatches - dispatches_after_first,
            batch.size() - 1);
}

TEST(DistCoordinator, SpawnFailureDegradesToLocal) {
  const auto configs = workload(12);
  dist::DistOptions options = small_cluster();
  options.respawn_budget = 2;
  dist::Coordinator::TransportFactory broken_factory =
      []() -> std::unique_ptr<dist::Transport> {
    throw std::runtime_error("no workers today");
  };
  dist::Coordinator coordinator(std::move(broken_factory), lattice, options);
  const auto got = coordinator.simulate_many(configs);
  expect_bit_identical(got, reference(configs, options.retry, lattice));
  EXPECT_TRUE(coordinator.degraded());
  EXPECT_EQ(coordinator.stats().local_fallbacks, configs.size());
  EXPECT_GT(coordinator.stats().spawn_failures, 0u);
  EXPECT_EQ(coordinator.healthy_workers(), 0u);

  // Once degraded, later batches run locally without touching the factory.
  const auto again = coordinator.simulate_many(configs);
  expect_bit_identical(again, got);
}

TEST(DistCoordinator, TotalWorkerLossDegradesGracefully) {
  const auto configs = workload(20);
  dist::DistOptions options = small_cluster();
  options.respawn_budget = 4;
  dist::ChaosOptions chaos;
  chaos.seed = 3;
  chaos.kill_on_send = 1.0;  // Every frame sent kills its worker.
  dist::Coordinator coordinator(chaos_factory(lattice, chaos), lattice,
                                options);
  const auto got = coordinator.simulate_many(configs);
  expect_bit_identical(got, reference(configs, options.retry, lattice));
  EXPECT_TRUE(coordinator.degraded());
  EXPECT_EQ(coordinator.stats().local_fallbacks, configs.size());
}

TEST(DistCoordinator, ZeroWorkersIsDegradedFromTheStart) {
  const auto configs = workload(8);
  dist::DistOptions options = small_cluster();
  options.workers = 0;
  dist::Coordinator coordinator(chaos_factory(lattice, {}), lattice, options);
  const auto got = coordinator.simulate_many(configs);
  expect_bit_identical(got, reference(configs, options.retry, lattice));
  EXPECT_TRUE(coordinator.degraded());
}

}  // namespace
