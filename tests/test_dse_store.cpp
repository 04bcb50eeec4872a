#include "dse/sim_store.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <span>
#include <stdexcept>

#include "kriging/system.hpp"
#include "kriging/variogram_model.hpp"
#include "util/contract.hpp"
#include "util/errors.hpp"
#include "util/rng.hpp"

namespace {

namespace d = ace::dse;

TEST(SimulationStore, AddAndAccess) {
  d::SimulationStore store;
  EXPECT_TRUE(store.empty());
  store.add({8, 8}, -40.0);
  store.add({8, 9}, -45.0);
  EXPECT_EQ(store.size(), 2u);
  EXPECT_EQ(store.config(1), (d::Config{8, 9}));
  EXPECT_DOUBLE_EQ(store.value(0), -40.0);
  EXPECT_THROW((void)store.config(2), std::out_of_range);
  EXPECT_THROW((void)store.value(5), std::out_of_range);
}

TEST(SimulationStore, RejectsDimensionMismatch) {
  d::SimulationStore store;
  store.add({1, 2, 3}, 0.0);
  EXPECT_THROW(store.add({1, 2}, 0.0), std::invalid_argument);
}

TEST(SimulationStore, NeighborsWithinRadiusIsInclusive) {
  d::SimulationStore store;
  store.add({0, 0}, 1.0);   // d = 0 from query {0,0}.
  store.add({1, 0}, 2.0);   // d = 1.
  store.add({1, 1}, 3.0);   // d = 2.
  store.add({3, 3}, 4.0);   // d = 6.
  const auto n0 = store.neighbors_within({0, 0}, 0);
  EXPECT_EQ(n0.count(), 1u);
  const auto n1 = store.neighbors_within({0, 0}, 1);
  EXPECT_EQ(n1.count(), 2u);
  const auto n2 = store.neighbors_within({0, 0}, 2);
  EXPECT_EQ(n2.count(), 3u);
  const auto n6 = store.neighbors_within({0, 0}, 6);
  EXPECT_EQ(n6.count(), 4u);
}

TEST(SimulationStore, GatherProducesAlignedPointsAndValues) {
  d::SimulationStore store;
  store.add({0, 0}, 1.0);
  store.add({2, 0}, 2.0);
  store.add({5, 5}, 9.0);
  const auto n = store.neighbors_within({1, 0}, 2);
  ASSERT_EQ(n.count(), 2u);
  std::vector<std::vector<double>> points;
  std::vector<double> values;
  store.gather(n, points, values);
  ASSERT_EQ(points.size(), 2u);
  EXPECT_DOUBLE_EQ(points[0][0], 0.0);
  EXPECT_DOUBLE_EQ(points[1][0], 2.0);
  EXPECT_DOUBLE_EQ(values[0], 1.0);
  EXPECT_DOUBLE_EQ(values[1], 2.0);
}

// gather_columns writes the row gather's coordinates and values into
// caller-owned SoA columns at the caller's stride, leaving the padding alone.
TEST(SimulationStore, GatherColumnsMatchesRowGather) {
  ace::util::Rng rng(5);
  d::SimulationStore store;
  for (std::size_t i = 0; i < 60; ++i)
    store.add({rng.uniform_int(0, 5), rng.uniform_int(-3, 3),
               rng.uniform_int(0, 5)},
              rng.uniform(-10.0, 10.0));
  const auto n = store.neighbors_within({2, 0, 2}, 3);
  ASSERT_GE(n.count(), 3u);
  std::vector<std::vector<double>> points;
  std::vector<double> values;
  store.gather(n, points, values);

  const std::size_t stride = n.count() + 5;
  const double pad = -777.0;
  std::vector<double> columns(3 * stride, pad);
  std::vector<double> column_values(n.count(), pad);
  store.gather_columns(n, columns, stride, column_values);
  for (std::size_t k = 0; k < n.count(); ++k) {
    EXPECT_EQ(column_values[k], values[k]);
    for (std::size_t dim = 0; dim < 3; ++dim)
      EXPECT_EQ(columns[dim * stride + k], points[k][dim]);
  }
  for (std::size_t dim = 0; dim < 3; ++dim)
    for (std::size_t k = n.count(); k < stride; ++k)
      EXPECT_EQ(columns[dim * stride + k], pad);
}

TEST(SimulationStore, GatherColumnsRejectsMismatchedBuffers) {
  d::SimulationStore store;
  store.add({0, 0}, 1.0);
  store.add({1, 0}, 2.0);
  store.add({0, 1}, 3.0);
  const auto n = store.neighbors_within({0, 0}, 1);
  ASSERT_EQ(n.count(), 3u);
  std::vector<double> columns(2 * 4);
  std::vector<double> values(3);
  EXPECT_NO_THROW(store.gather_columns(n, columns, 4, values));
  // Stride below the count, columns not dim·stride, values not count.
  EXPECT_THROW(store.gather_columns(n, std::span<double>(columns.data(), 4),
                                    2, values),
               std::invalid_argument);
  EXPECT_THROW(store.gather_columns(n, std::span<double>(columns.data(), 7),
                                    4, values),
               std::invalid_argument);
  EXPECT_THROW(store.gather_columns(n, columns, 4,
                                    std::span<double>(values.data(), 2)),
               std::invalid_argument);
  // An index outside the store.
  d::Neighborhood stale{{0, 1, 9}};
  EXPECT_THROW(store.gather_columns(stale, columns, 4, values),
               std::out_of_range);
}

TEST(SimulationStore, EmptyStoreHasNoNeighbors) {
  d::SimulationStore store;
  EXPECT_EQ(store.neighbors_within({0, 0}, 100).count(), 0u);
}

TEST(SimulationStore, ExactDuplicateUpdatesInPlace) {
  d::SimulationStore store;
  EXPECT_EQ(store.add({4, 4}, -10.0), 0u);
  EXPECT_EQ(store.add({4, 5}, -20.0), 1u);
  // Re-adding an existing configuration must not create a second support
  // point; it returns the original index and refreshes the value.
  EXPECT_EQ(store.add({4, 4}, -11.0), 0u);
  EXPECT_EQ(store.size(), 2u);
  EXPECT_DOUBLE_EQ(store.value(0), -11.0);
  ASSERT_TRUE(store.find({4, 4}).has_value());
  EXPECT_EQ(*store.find({4, 4}), 0u);
  EXPECT_FALSE(store.find({9, 9}).has_value());
  // The radius index holds it once.
  EXPECT_EQ(store.neighbors_within({4, 4}, 0).count(), 1u);
}

TEST(SimulationStore, IndexedRadiusQueriesMatchBruteForce) {
  ace::util::Rng rng(77);
  d::SimulationStore store;
  std::vector<d::Config> configs;
  for (int k = 0; k < 200; ++k) {
    d::Config c(5);
    for (auto& v : c) v = rng.uniform_int(0, 8);
    if (store.find(c).has_value()) continue;
    configs.push_back(c);
    store.add(std::move(c), static_cast<double>(k));
  }
  for (int q = 0; q < 30; ++q) {
    d::Config query(5);
    for (auto& v : query) v = rng.uniform_int(0, 8);
    for (const int radius : {0, 1, 2, 3, 6}) {
      std::vector<std::size_t> expected;
      for (std::size_t i = 0; i < configs.size(); ++i)
        if (d::l1_distance(configs[i], query) <= radius)
          expected.push_back(i);
      EXPECT_EQ(store.neighbors_within(query, radius).indices, expected);
    }
  }
}

TEST(SimulationStore, NeighborQueryRejectsDimensionMismatch) {
  d::SimulationStore store;
  store.add({1, 2, 3}, 0.0);
  EXPECT_THROW((void)store.neighbors_within({1, 2}, 3), std::invalid_argument);
}

TEST(SimulationStore, DeduplicationKeepsKrigingWellPosed) {
  // A duplicated support point makes two rows of the kriging Γ identical,
  // forcing the ridge fallback. With update-in-place deduplication the
  // gathered support stays distinct and the system solves cleanly.
  d::SimulationStore store;
  store.add({0, 0}, 0.0);
  store.add({1, 0}, 1.0);
  store.add({0, 1}, 2.0);
  store.add({1, 0}, 1.0);  // Duplicate: must not enter twice.
  ASSERT_EQ(store.size(), 3u);

  const auto n = store.neighbors_within({1, 1}, 2);
  ASSERT_EQ(n.count(), 3u);
  std::vector<std::vector<double>> points;
  std::vector<double> values;
  store.gather(n, points, values);

  const ace::kriging::LinearVariogram model(0.0, 1.0);
  ace::kriging::KrigingSystem system(
      ace::kriging::SystemSpec{ace::kriging::SystemKind::kOrdinary}, points,
      values, model);
  const auto result = system.query({1.0, 1.0});
  ASSERT_TRUE(result.has_value());
  EXPECT_FALSE(result->regularized);
}

TEST(SimulationStore, AddRejectsNonFiniteValues) {
  // Regression guard: a NaN slipping into the store used to poison every
  // variogram bin it touched and every kriging system that gathered it.
  // Now the store is the hard boundary: non-finite λ never enters.
  d::SimulationStore store;
  store.add({1, 1}, 0.5);
  EXPECT_THROW(store.add({2, 1}, std::numeric_limits<double>::quiet_NaN()),
               ace::util::NonFiniteError);
  EXPECT_THROW(store.add({2, 2}, std::numeric_limits<double>::infinity()),
               ace::util::NonFiniteError);
  EXPECT_THROW(store.add({2, 3}, -std::numeric_limits<double>::infinity()),
               ace::util::NonFiniteError);
  // NonFiniteError is an invalid_argument, so legacy catch sites still work.
  EXPECT_THROW(store.add({2, 1}, std::numeric_limits<double>::quiet_NaN()),
               std::invalid_argument);
  EXPECT_EQ(store.size(), 1u);
  EXPECT_FALSE(store.find({2, 1}).has_value());
}

TEST(SimulationStore, QuarantineTracksFirstFaultCode) {
  d::SimulationStore store;
  EXPECT_EQ(store.quarantine_count(), 0u);
  EXPECT_FALSE(store.quarantined({3, 3}).has_value());

  EXPECT_TRUE(store.quarantine({3, 3}, d::FaultCode::kSimulatorThrow));
  // Re-quarantining is not a new quarantine and keeps the original code.
  EXPECT_FALSE(store.quarantine({3, 3}, d::FaultCode::kTimeout));
  EXPECT_TRUE(store.quarantine({4, 4}, d::FaultCode::kNonFinite));

  ASSERT_TRUE(store.quarantined({3, 3}).has_value());
  EXPECT_EQ(*store.quarantined({3, 3}), d::FaultCode::kSimulatorThrow);
  ASSERT_TRUE(store.quarantined({4, 4}).has_value());
  EXPECT_EQ(*store.quarantined({4, 4}), d::FaultCode::kNonFinite);
  EXPECT_EQ(store.quarantine_count(), 2u);

  // The log is insertion-ordered (what checkpoints serialize).
  ASSERT_EQ(store.quarantine_log().size(), 2u);
  EXPECT_EQ(store.quarantine_log()[0].first, (d::Config{3, 3}));
  EXPECT_EQ(store.quarantine_log()[0].second, d::FaultCode::kSimulatorThrow);
  EXPECT_EQ(store.quarantine_log()[1].first, (d::Config{4, 4}));

  // Quarantine is bookkeeping, not storage: the store itself is untouched.
  EXPECT_TRUE(store.empty());
}

TEST(SimulationStore, QuarantineLiftedBySuccessfulAdd) {
  // Regression: a transiently faulting configuration (flaky simulator run,
  // timeout under load) used to stay a permanent outcast even after a later
  // clean simulation. A successful add must lift the active quarantine while
  // the log keeps the event for audit.
  d::SimulationStore store;
  EXPECT_TRUE(store.quarantine({3, 3}, d::FaultCode::kTimeout));
  ASSERT_TRUE(store.quarantined({3, 3}).has_value());

  store.add({3, 3}, -42.0);
  EXPECT_FALSE(store.quarantined({3, 3}).has_value());
  ASSERT_TRUE(store.find({3, 3}).has_value());
  EXPECT_DOUBLE_EQ(store.value(*store.find({3, 3})), -42.0);

  // The audit log keeps the lifted event; only the active map forgets it.
  EXPECT_EQ(store.quarantine_count(), 1u);
  ASSERT_EQ(store.quarantine_log().size(), 1u);
  EXPECT_EQ(store.quarantine_log()[0].first, (d::Config{3, 3}));
  EXPECT_EQ(store.quarantine_log()[0].second, d::FaultCode::kTimeout);

  // After the lift the configuration can fault (and quarantine) anew, and
  // that is a *new* quarantine event appended to the log.
  EXPECT_TRUE(store.quarantine({3, 3}, d::FaultCode::kNonFinite));
  ASSERT_TRUE(store.quarantined({3, 3}).has_value());
  EXPECT_EQ(*store.quarantined({3, 3}), d::FaultCode::kNonFinite);
  ASSERT_EQ(store.quarantine_log().size(), 2u);
  EXPECT_EQ(store.quarantine_log()[1].second, d::FaultCode::kNonFinite);
}

TEST(SimulationStore, UpdateInPlaceAlsoLiftsQuarantine) {
  // The lift applies on the duplicate-update path too: the config is
  // already stored, a re-simulation succeeded, so it is healthy again.
  d::SimulationStore store;
  store.add({5, 5}, 1.0);
  EXPECT_TRUE(store.quarantine({5, 5}, d::FaultCode::kSimulatorThrow));
  EXPECT_EQ(store.add({5, 5}, 2.0), 0u);
  EXPECT_FALSE(store.quarantined({5, 5}).has_value());
  EXPECT_DOUBLE_EQ(store.value(0), 2.0);
}

TEST(SimulationStore, NegativeRadiusIsAContractViolation) {
  // A negative radius is always a caller sign bug, never an empty query.
  // With contracts compiled in (Debug) it throws; in Release the contracts
  // are compiled out and the scans degenerate to empty results.
  d::SimulationStore store;
  store.add({1, 1}, 0.0);
  store.add({2, 2}, 1.0);
#if ACE_CONTRACTS_ENABLED
  EXPECT_THROW((void)store.neighbors_within({1, 1}, -1),
               ace::util::ContractViolation);
  EXPECT_THROW((void)store.neighbors_within_linear({1, 1}, -1),
               ace::util::ContractViolation);
#else
  EXPECT_EQ(store.neighbors_within({1, 1}, -1).count(), 0u);
  EXPECT_EQ(store.neighbors_within_linear({1, 1}, -1).count(), 0u);
#endif
}

}  // namespace
