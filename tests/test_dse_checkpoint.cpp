#include "dse/checkpoint.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "dse/scheduler.hpp"

namespace {

namespace d = ace::dse;

std::string temp_path(const std::string& name) {
  const std::string path = ::testing::TempDir() + name;
  std::remove(path.c_str());  // No stale state from earlier runs.
  return path;
}

double smooth(const d::Config& c) {
  double acc = 0.0;
  for (std::size_t i = 0; i < c.size(); ++i)
    acc += 0.5 * static_cast<double>(c[i]) +
           0.01 * static_cast<double>(c[i] * c[i]) +
           0.02 * static_cast<double>(i + 1) * static_cast<double>(c[i]);
  return acc;
}

d::PolicyOptions kriging_options() {
  d::PolicyOptions options;
  options.distance = 3;
  options.nn_min = 1;
  options.min_fit_points = 6;
  options.refit_period = 5;
  return options;
}

void expect_snapshots_equal(const d::PolicySnapshot& a,
                            const d::PolicySnapshot& b) {
  EXPECT_EQ(a.configs, b.configs);
  EXPECT_EQ(a.values, b.values);  // Bitwise: hexfloat round trip is exact.
  EXPECT_EQ(a.quarantine, b.quarantine);
  EXPECT_EQ(a.fit_events, b.fit_events);
  EXPECT_TRUE(a.stats == b.stats);
}

TEST(CheckpointFile, RoundTripIsExact) {
  d::Checkpoint ck;
  ck.policy.configs = {{8, 8}, {7, 8}, {8, 7}};
  // Deliberately awkward doubles: non-terminating binary fractions, huge,
  // and denormal magnitudes all survive the hexfloat round trip exactly.
  ck.policy.values = {0.1, 1.0 / 3.0, -1e300};
  ck.policy.quarantine = {{{2, 2}, d::FaultCode::kSimulatorThrow},
                          {{5, 5}, d::FaultCode::kTimeout}};
  ck.policy.fit_events = {6, 11};
  ck.policy.stats.total = 17;
  ck.policy.stats.simulated = 3;
  ck.policy.stats.interpolated = 9;
  ck.policy.stats.quarantined = 2;
  ck.policy.stats.checkpoints_written = 4;
  ck.policy.stats.neighbors_per_interpolation.add(3.0);
  ck.policy.stats.neighbors_per_interpolation.add(5.0);
  d::MinPlusOneCursor min_plus;
  min_plus.phase = 2;
  min_plus.var = 3;
  min_plus.w_min = {6, 6, 6};
  min_plus.lambda_at_max = 5e-324;  // Smallest positive denormal.
  min_plus.have_lambda_at_max = true;
  min_plus.w = {7, 6, 6};
  min_plus.lambda = -9.25;
  min_plus.have_lambda = true;
  min_plus.decisions = {0, 1};
  min_plus.steps = 2;
  d::SensitivityCursor sensitivity;
  sensitivity.started = true;
  sensitivity.levels = {4, 5, 5};
  sensitivity.lambda = 0.90625;
  sensitivity.feasible = true;
  sensitivity.decisions = {0, 0, 1, 2};
  sensitivity.steps = 4;

  // Each optimizer's cursor comes back as the cursor of that optimizer.
  const std::string path = temp_path("ace_ckpt_roundtrip.txt");
  for (const d::OptimizerCursor& cursor :
       {d::OptimizerCursor(min_plus), d::OptimizerCursor(sensitivity)}) {
    ck.cursor = cursor;
    d::save_checkpoint(path, ck);
    const auto loaded = d::load_checkpoint(path);
    ASSERT_TRUE(loaded.has_value());
    expect_snapshots_equal(loaded->policy, ck.policy);
    EXPECT_TRUE(loaded->cursor == ck.cursor) << cursor.index();
  }
  std::remove(path.c_str());
}

TEST(CheckpointFile, MissingFileIsNullopt) {
  EXPECT_FALSE(
      d::load_checkpoint(temp_path("ace_ckpt_missing.txt")).has_value());
}

TEST(CheckpointFile, RejectsGarbageAndUnsupportedVersion) {
  const std::string garbage = temp_path("ace_ckpt_garbage.txt");
  {
    std::ofstream out(garbage);
    out << "hello world\n";
  }
  EXPECT_THROW((void)d::load_checkpoint(garbage), std::runtime_error);
  std::remove(garbage.c_str());

  const std::string future = temp_path("ace_ckpt_future.txt");
  {
    std::ofstream out(future);
    out << "ACE-CHECKPOINT 99\noptimizer min_plus_one\n";
  }
  EXPECT_THROW((void)d::load_checkpoint(future), std::runtime_error);
  std::remove(future.c_str());

  const std::string truncated = temp_path("ace_ckpt_truncated.txt");
  {
    std::ofstream out(truncated);
    out << "ACE-CHECKPOINT 1\noptimizer min_plus_one\nstore 3 2\n";
  }
  EXPECT_THROW((void)d::load_checkpoint(truncated), std::runtime_error);
  std::remove(truncated.c_str());
}

// A small valid checkpoint whose payload the corruption tests edit one
// token at a time.
d::Checkpoint small_checkpoint() {
  d::Checkpoint ck;
  ck.policy.configs = {{8, 8}, {7, 8}};
  ck.policy.values = {0.5, -2.25};
  ck.policy.fit_events = {6, 11};
  d::MinPlusOneCursor min_plus;
  min_plus.w_min = {2, 2};
  min_plus.w = {8, 8};
  ck.cursor = min_plus;
  return ck;
}

/// The fault code parse_checkpoint reports for `payload` (kNone if it
/// parses).
d::FaultCode parse_fault(const std::string& payload) {
  std::istringstream in(payload);
  try {
    (void)d::parse_checkpoint(in);
  } catch (const d::PayloadError& error) {
    return error.code();
  }
  return d::FaultCode::kNone;
}

std::string replaced(std::string text, const std::string& from,
                     const std::string& to) {
  const std::size_t at = text.find(from);
  EXPECT_NE(at, std::string::npos) << from;
  if (at != std::string::npos) text.replace(at, from.size(), to);
  return text;
}

TEST(CheckpointFile, ImpossibleCountsAndIntegersAreCorruptPayloads) {
  const std::string valid = d::serialize_checkpoint(small_checkpoint());
  ASSERT_EQ(parse_fault(valid), d::FaultCode::kNone);

  // A negative count, a count no payload this size can hold, a count at
  // the top of the size_t range, and a version that only wraps into range
  // through long -> int: all four are corrupt, never an allocation
  // failure or a silently accepted version.
  EXPECT_EQ(parse_fault(replaced(valid, "store 2 2", "store -1 2")),
            d::FaultCode::kCorruptPayload);
  EXPECT_EQ(parse_fault(
                replaced(valid, "store 2 2", "store 99999999999999 2")),
            d::FaultCode::kCorruptPayload);
  EXPECT_EQ(parse_fault(replaced(valid, "fit_events 2 ",
                                 "fit_events 18446744073709551615 ")),
            d::FaultCode::kCorruptPayload);
  EXPECT_EQ(parse_fault(replaced(valid, "ACE-CHECKPOINT 3",
                                 "ACE-CHECKPOINT 4294967299")),
            d::FaultCode::kCorruptPayload);

  // The same bounds guard the dimension, the quarantine and the sized
  // cursor lists; an int token beyond int range is corrupt too.
  EXPECT_EQ(parse_fault(replaced(valid, "store 2 2", "store 2 9999999")),
            d::FaultCode::kCorruptPayload);
  EXPECT_EQ(parse_fault(replaced(valid, "quarantine 0 0",
                                 "quarantine 9999999 2")),
            d::FaultCode::kCorruptPayload);
  EXPECT_EQ(parse_fault(replaced(valid, "w_min 2 ", "w_min 9999999 ")),
            d::FaultCode::kCorruptPayload);
  EXPECT_EQ(parse_fault(replaced(valid, "\n8 8 ", "\n8 2147483648 ")),
            d::FaultCode::kCorruptPayload);

  // A payload cut off mid-token stream is still reported as truncated.
  EXPECT_EQ(parse_fault(valid.substr(0, valid.find("cursor_min_plus"))),
            d::FaultCode::kTruncatedPayload);
}

// Only the two optimizers a checkpoint can resume are valid tags: any
// other is rejected at parse time, not later by the resuming entry point.
TEST(CheckpointFile, UnknownOptimizerTagIsACorruptPayload) {
  const std::string valid = d::serialize_checkpoint(small_checkpoint());
  ASSERT_EQ(parse_fault(valid), d::FaultCode::kNone);
  EXPECT_EQ(parse_fault(replaced(valid, "optimizer min_plus_one",
                                 "optimizer bogus")),
            d::FaultCode::kCorruptPayload);
}

TEST(CheckpointFile, ValidPayloadReserializesByteForByte) {
  const std::string valid = d::serialize_checkpoint(small_checkpoint());
  std::istringstream in(valid);
  EXPECT_EQ(d::serialize_checkpoint(d::parse_checkpoint(in)), valid);
}

// Hand-written fixtures in the historical formats: a version-N writer
// produced exactly these bytes, and the version-gated reader must keep
// loading them forever. The token streams below mirror put_stats() as it
// stood at each version — v1 ends after neighbors_per_interpolation, v2
// after rcond_per_solve.
constexpr const char* kCursorTail =
    "cursor_min_plus 0 0 0 0 0 0x0p+0 0x0p+0\n"
    "w_min 2 8 8\n"
    "w 2 8 8\n"
    "decisions 0\n"
    "cursor_sensitivity 0 0 0 0 0x0p+0\n"
    "levels 0\n"
    "decisions 0\n"
    "end\n";

std::string write_fixture(const std::string& name, const std::string& body) {
  const std::string path = temp_path(name);
  std::ofstream out(path);
  out << body;
  return path;
}

TEST(CheckpointFile, LoadsVersion1FixtureUnderTheGateAwarePolicy) {
  const std::string path = write_fixture(
      "ace_ckpt_v1_fixture.txt",
      std::string("ACE-CHECKPOINT 1\n"
                  "optimizer min_plus_one\n"
                  "store 2 2\n"
                  "4 4 0x1.8p+2\n"
                  "2 2 0x1p+1\n"
                  "quarantine 0 0\n"
                  "fit_events 1 2\n"
                  "stats 10 4 5 1 0 2 3 0 0 0 0 0 1 "
                  "2 0x1p+2 0x0p+0 0x1p+2 0x1p+2\n") +
      kCursorTail);
  const auto loaded = d::load_checkpoint(path);
  ASSERT_TRUE(loaded.has_value());
  const d::PolicyStats& s = loaded->policy.stats;
  // v1 fields arrive intact...
  EXPECT_EQ(s.total, 10u);
  EXPECT_EQ(s.variance_rejections, 2u);
  EXPECT_EQ(s.refits, 3u);
  EXPECT_EQ(s.neighbors_per_interpolation.count(), 2u);
  // ...and every post-v1 field holds its fresh-policy default.
  EXPECT_EQ(s.ridge_fallbacks, 0u);
  EXPECT_EQ(s.full_factorizations, 0u);
  EXPECT_EQ(s.rcond_per_solve.count(), 0u);
  EXPECT_EQ(s.loo_rejections, 0u);
  EXPECT_EQ(s.sequential_rejections, 0u);
  EXPECT_EQ(s.loo_passes, 0u);
  EXPECT_EQ(s.loo_abs_error.count(), 0u);

  // A v1 snapshot restores into today's gate-aware policy — including one
  // running an adaptive gate the v1 writer had never heard of.
  d::PolicyOptions gated = kriging_options();
  gated.gate = d::GateKind::kLooCalibrated;
  d::KrigingPolicy policy(gated);
  policy.restore(loaded->policy);
  EXPECT_EQ(policy.store().size(), 2u);
  EXPECT_EQ(policy.stats().variance_rejections, 2u);

  // Re-saving upgrades the file to the current version with the counters
  // it carried, bit-for-bit.
  d::save_checkpoint(path, *loaded);
  const auto upgraded = d::load_checkpoint(path);
  ASSERT_TRUE(upgraded.has_value());
  expect_snapshots_equal(upgraded->policy, loaded->policy);
  std::remove(path.c_str());
}

TEST(CheckpointFile, LoadsVersion2FixtureWithZeroGateCounters) {
  const std::string path = write_fixture(
      "ace_ckpt_v2_fixture.txt",
      std::string("ACE-CHECKPOINT 2\n"
                  "optimizer steepest_descent\n"
                  "store 0 0\n"
                  "quarantine 0 0\n"
                  "fit_events 0\n"
                  "stats 6 6 0 0 0 0 1 0 0 0 0 0 0 "
                  "0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 "
                  "1 5 2 3 4 0x1p-1 0x0p+0 0x1p-1 0x1p-1\n") +
      kCursorTail);
  const auto loaded = d::load_checkpoint(path);
  ASSERT_TRUE(loaded.has_value());
  const d::PolicyStats& s = loaded->policy.stats;
  // The v2 tail arrives intact: the retired factor cache's two slots
  // (2 and 3 here) are read past, so the fields after them still line up.
  EXPECT_EQ(s.ridge_fallbacks, 1u);
  EXPECT_EQ(s.full_factorizations, 5u);
  EXPECT_EQ(s.rcond_per_solve.count(), 4u);
  EXPECT_DOUBLE_EQ(s.rcond_per_solve.mean(), 0.5);
  // ...and the v3 gate counters default to a fresh policy's.
  EXPECT_EQ(s.loo_rejections, 0u);
  EXPECT_EQ(s.sequential_rejections, 0u);
  EXPECT_EQ(s.loo_passes, 0u);
  EXPECT_EQ(s.loo_abs_error.count(), 0u);
  std::remove(path.c_str());
}

TEST(CheckpointFile, Version3RoundTripsGateCountersExactly) {
  d::Checkpoint ck;
  ck.policy.stats.variance_rejections = 4;
  ck.policy.stats.loo_rejections = 7;
  ck.policy.stats.sequential_rejections = 3;
  ck.policy.stats.loo_passes = 9;
  ck.policy.stats.loo_abs_error.add(0.1);
  ck.policy.stats.loo_abs_error.add(1.0 / 3.0);

  const std::string path = temp_path("ace_ckpt_v3_gates.txt");
  d::save_checkpoint(path, ck);
  {
    std::ifstream in(path);
    std::string magic;
    int version = 0;
    in >> magic >> version;
    EXPECT_EQ(magic, "ACE-CHECKPOINT");
    EXPECT_EQ(version, 3);
  }
  const auto loaded = d::load_checkpoint(path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_TRUE(loaded->policy.stats == ck.policy.stats);
  std::remove(path.c_str());
}

TEST(PolicySnapshot, RestoreContinuesBitIdentically) {
  // Drive a policy through a workload rich enough to fit and refit the
  // variogram, snapshot halfway, restore into a fresh policy, and continue
  // both on the same tail: every outcome and statistic must match exactly.
  const d::SimulatorFn sim = smooth;
  std::vector<d::Config> work;
  for (int x = 0; x < 8; ++x)
    for (int y = 0; y < 8; ++y) work.push_back({(x * 3 + y) % 8, y});

  d::KrigingPolicy original(kriging_options());
  const std::size_t half = work.size() / 2;
  for (std::size_t i = 0; i < half; ++i)
    (void)original.evaluate(work[i], sim);

  d::KrigingPolicy resumed(kriging_options());
  resumed.restore(original.snapshot());
  expect_snapshots_equal(resumed.snapshot(), original.snapshot());

  for (std::size_t i = half; i < work.size(); ++i) {
    const d::EvalOutcome a = original.evaluate(work[i], sim);
    const d::EvalOutcome b = resumed.evaluate(work[i], sim);
    EXPECT_EQ(a, b) << "diverged at work item " << i;
  }
  EXPECT_TRUE(original.stats() == resumed.stats());
  expect_snapshots_equal(resumed.snapshot(), original.snapshot());
}

// A configuration can legitimately appear in both the quarantine list and
// the store (it faulted once, then a later clean result lifted the
// quarantine). restore() must replay the quarantine *before* the adds so
// the lift happens exactly as it did live: active quarantine gone, audit
// log entry kept, and the next evaluation served from the store.
TEST(PolicySnapshot, RestoreReplaysQuarantineBeforeAddsAndLifts) {
  d::PolicySnapshot snapshot;
  snapshot.configs = {{4, 4}, {2, 2}, {5, 4}};  // {2,2} was lifted.
  snapshot.values = {smooth({4, 4}), smooth({2, 2}), smooth({5, 4})};
  snapshot.quarantine = {{{2, 2}, d::FaultCode::kSimulatorThrow},
                         {{9, 9}, d::FaultCode::kTimeout}};
  snapshot.stats.total = 5;
  snapshot.stats.simulated = 3;
  snapshot.stats.quarantined = 2;

  d::KrigingPolicy policy(kriging_options());
  policy.restore(snapshot);

  // {2,2}'s quarantine was lifted by its add; {9,9}'s is still active.
  EXPECT_FALSE(policy.store().quarantined({2, 2}).has_value());
  ASSERT_TRUE(policy.store().quarantined({9, 9}).has_value());
  EXPECT_EQ(*policy.store().quarantined({9, 9}), d::FaultCode::kTimeout);
  // The audit log keeps both events.
  EXPECT_EQ(policy.store().quarantine_count(), 2u);

  // A lifted configuration is healthy support: evaluating it is a store
  // hit, not a re-simulation (the simulator here would fail the test).
  std::size_t simulator_calls = 0;
  const d::EvalOutcome outcome =
      policy.evaluate({2, 2}, [&simulator_calls](const d::Config& c) {
        ++simulator_calls;
        return smooth(c);
      });
  EXPECT_EQ(simulator_calls, 0u);
  EXPECT_DOUBLE_EQ(outcome.value, smooth({2, 2}));

  // And the re-snapshot reproduces the original lists bit-for-bit.
  const d::PolicySnapshot again = policy.snapshot();
  EXPECT_EQ(again.configs, snapshot.configs);
  EXPECT_EQ(again.values, snapshot.values);
  EXPECT_EQ(again.quarantine, snapshot.quarantine);
}

TEST(PolicySnapshot, RestoreRequiresFreshPolicy) {
  d::KrigingPolicy used(kriging_options());
  (void)used.evaluate({1, 1}, smooth);
  const d::PolicySnapshot snap = used.snapshot();
  EXPECT_THROW(used.restore(snap), std::logic_error);
}

// restore() refits only at the last recorded fit event (every event under
// a LOO-calibrated gate). Prove the skipped refits unobservable: snapshot
// the live policy after every step, restore into a fresh one, and run the
// same next batch through both — outcomes, statistics and the snapshot
// that follows must be bit-identical, for every gate.
class RestoreEquivalence : public ::testing::TestWithParam<d::GateKind> {};

TEST_P(RestoreEquivalence, EveryStepSnapshotEvaluatesTheNextBatchIdentically) {
  d::PolicyOptions options = kriging_options();
  options.gate = GetParam();
  options.gate_lambda_min = 6.0;
  // Fit from three stored points, every two new simulations. The first
  // batch stores three points pairwise two L1 steps apart, so the first
  // attempt sees a one-bin variogram and fails before the fits start
  // succeeding.
  options.min_fit_points = 3;
  options.refit_period = 2;

  std::vector<d::Config> work = {{0, 0}, {1, 1}, {2, 0}};
  for (int x = 0; x < 8; ++x)
    for (int y = 0; y < 8; ++y) work.push_back({(x * 3 + y) % 8, y});
  constexpr std::size_t kBatch = 3;

  d::KrigingPolicy live(options);
  std::size_t restored_with_fits = 0;
  for (std::size_t at = 0; at < work.size(); at += kBatch) {
    const d::PolicySnapshot snapshot = live.snapshot();
    if (!snapshot.fit_events.empty()) ++restored_with_fits;
    d::KrigingPolicy restored(options);
    restored.restore(snapshot);
    EXPECT_EQ(restored.gate_calibration(), live.gate_calibration());

    const std::vector<d::Config> batch(
        work.begin() + static_cast<std::ptrdiff_t>(at),
        work.begin() + static_cast<std::ptrdiff_t>(
                           std::min(at + kBatch, work.size())));
    const auto a = live.evaluate_batch(batch, smooth);
    const auto b = restored.evaluate_batch(batch, smooth);
    EXPECT_EQ(a, b) << "diverged on the batch at work item " << at;
    EXPECT_TRUE(live.stats() == restored.stats()) << "at work item " << at;
    expect_snapshots_equal(restored.snapshot(), live.snapshot());
  }
  // The sweep covered snapshots before, across and after the failed
  // attempts, and some interpolations were actually made.
  const d::PolicyStats stats = live.stats();
  EXPECT_GT(stats.failed_refits, 0u);
  EXPECT_GT(stats.refits, 1u);
  EXPECT_GT(stats.interpolated, 0u);
  EXPECT_GT(restored_with_fits, 3u);
}

INSTANTIATE_TEST_SUITE_P(
    GatesAndDrifts, RestoreEquivalence,
    ::testing::Values(d::GateKind::kNeighbourCount, d::GateKind::kVariance,
                      d::GateKind::kLooCalibrated,
                      d::GateKind::kSequentialDesign),
    [](const ::testing::TestParamInfo<d::GateKind>& info) {
      // "_constant": the constant-mean field of ordinary kriging.
      std::string name = d::gate_name(info.param);
      name += "_constant";
      for (char& c : name)
        if (c == '-') c = '_';
      return name;
    });

TEST(CheckpointedRuns, KilledMinPlusOneResumesBitIdentically) {
  d::MinPlusOneOptions mpo;
  mpo.nv = 3;
  mpo.w_max = 8;
  mpo.w_min = 2;
  mpo.lambda_min = 5.5;
  const d::SimulatorFn sim = smooth;

  // Uninterrupted reference run.
  const std::string ref_path = temp_path("ace_ckpt_mp_ref.txt");
  d::KrigingPolicy reference(kriging_options());
  const d::MinPlusOneResult expected =
      d::checkpointed_min_plus_one(reference, sim, mpo, {ref_path});
  ASSERT_TRUE(d::load_checkpoint(ref_path).has_value());

  // Kill after each possible number of steps; resume must reconverge.
  for (std::size_t kill = 1; kill <= 5; ++kill) {
    const std::string path =
        temp_path("ace_ckpt_mp_kill" + std::to_string(kill) + ".txt");

    d::KrigingPolicy before(kriging_options());
    (void)d::checkpointed_min_plus_one(before, sim, mpo, {path, kill});
    const auto mid = d::load_checkpoint(path);
    ASSERT_TRUE(mid.has_value());

    d::KrigingPolicy after(kriging_options());
    const d::MinPlusOneResult resumed =
        d::checkpointed_min_plus_one(after, sim, mpo, {path});

    EXPECT_EQ(resumed.w_min, expected.w_min) << "kill=" << kill;
    EXPECT_EQ(resumed.w_res, expected.w_res) << "kill=" << kill;
    EXPECT_EQ(resumed.decisions, expected.decisions) << "kill=" << kill;
    EXPECT_DOUBLE_EQ(resumed.final_lambda, expected.final_lambda);
    EXPECT_EQ(resumed.constraint_met, expected.constraint_met);
    // The whole policy state — store, quarantine, fit history, statistics
    // (including checkpoints_written) — matches the uninterrupted run.
    expect_snapshots_equal(after.snapshot(), reference.snapshot());
    std::remove(path.c_str());
  }
  std::remove(ref_path.c_str());
}

TEST(CheckpointedRuns, KilledSteepestDescentResumesBitIdentically) {
  d::SensitivityOptions so;
  so.nv = 3;
  so.level_max = 8;
  so.level_min = 0;
  so.lambda_min = 0.9;
  // Quality in (0, 1]: relaxing a level doubles its noise contribution.
  const d::SimulatorFn sim = [](const d::Config& c) {
    double noise = 0.0;
    for (std::size_t i = 0; i < c.size(); ++i)
      noise += (1.0 + 0.01 * static_cast<double>(i)) *
               std::pow(2.0, -static_cast<double>(c[i]));
    return 1.0 - noise;
  };

  const std::string ref_path = temp_path("ace_ckpt_sd_ref.txt");
  d::KrigingPolicy reference(kriging_options());
  const d::SensitivityResult expected =
      d::checkpointed_steepest_descent(reference, sim, so, {ref_path});
  EXPECT_TRUE(expected.feasible);
  EXPECT_FALSE(expected.decisions.empty());

  for (const std::size_t kill : {1u, 3u, 6u}) {
    const std::string path =
        temp_path("ace_ckpt_sd_kill" + std::to_string(kill) + ".txt");
    d::KrigingPolicy before(kriging_options());
    (void)d::checkpointed_steepest_descent(before, sim, so, {path, kill});

    d::KrigingPolicy after(kriging_options());
    const d::SensitivityResult resumed =
        d::checkpointed_steepest_descent(after, sim, so, {path});

    EXPECT_EQ(resumed.levels, expected.levels) << "kill=" << kill;
    EXPECT_EQ(resumed.decisions, expected.decisions) << "kill=" << kill;
    EXPECT_DOUBLE_EQ(resumed.final_lambda, expected.final_lambda);
    EXPECT_EQ(resumed.feasible, expected.feasible);
    expect_snapshots_equal(after.snapshot(), reference.snapshot());
    std::remove(path.c_str());
  }
  std::remove(ref_path.c_str());
}

TEST(CheckpointedRuns, RerunAfterCompletionIsAnIdleResume) {
  d::MinPlusOneOptions mpo;
  mpo.nv = 2;
  mpo.w_max = 6;
  mpo.w_min = 2;
  mpo.lambda_min = 3.0;
  std::size_t sim_calls = 0;
  const d::SimulatorFn sim = [&sim_calls](const d::Config& c) {
    ++sim_calls;
    return smooth(c);
  };
  const std::string path = temp_path("ace_ckpt_idem.txt");

  d::KrigingPolicy first(kriging_options());
  const d::MinPlusOneResult res =
      d::checkpointed_min_plus_one(first, sim, mpo, {path});
  const std::size_t calls_after_first = sim_calls;

  // The cursor on disk is finished: a rerun restores the policy, runs no
  // steps, simulates nothing, and reproduces the result.
  d::KrigingPolicy second(kriging_options());
  const d::MinPlusOneResult rerun =
      d::checkpointed_min_plus_one(second, sim, mpo, {path});
  EXPECT_EQ(sim_calls, calls_after_first);
  EXPECT_EQ(rerun.w_res, res.w_res);
  EXPECT_EQ(rerun.decisions, res.decisions);
  EXPECT_TRUE(first.stats() == second.stats());
  std::remove(path.c_str());
}

TEST(CheckpointedRuns, OptimizerMismatchIsRejected) {
  d::MinPlusOneOptions mpo;
  mpo.nv = 2;
  mpo.w_max = 4;
  mpo.w_min = 2;
  mpo.lambda_min = 2.0;
  const std::string path = temp_path("ace_ckpt_mismatch.txt");
  d::KrigingPolicy policy(kriging_options());
  (void)d::checkpointed_min_plus_one(policy, smooth, mpo, {path});

  d::SensitivityOptions so;
  so.nv = 2;
  d::KrigingPolicy other(kriging_options());
  EXPECT_THROW((void)d::checkpointed_steepest_descent(other, smooth, so,
                                                      {path}),
               std::runtime_error);
  std::remove(path.c_str());
}

TEST(CheckpointedRuns, EmptyPathIsRejected) {
  d::MinPlusOneOptions mpo;
  mpo.nv = 2;
  d::KrigingPolicy policy(kriging_options());
  EXPECT_THROW(
      (void)d::checkpointed_min_plus_one(policy, smooth, mpo, {""}),
      std::invalid_argument);
}

}  // namespace
