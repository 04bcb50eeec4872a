#include "util/stats.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <vector>

namespace {

using ace::util::RunningStats;

TEST(RunningStats, EmptyAccumulator) {
  RunningStats s;
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_THROW((void)s.min(), std::logic_error);
  EXPECT_THROW((void)s.max(), std::logic_error);
}

TEST(RunningStats, SingleSample) {
  RunningStats s;
  s.add(3.5);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_DOUBLE_EQ(s.mean(), 3.5);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), 3.5);
  EXPECT_DOUBLE_EQ(s.max(), 3.5);
}

TEST(RunningStats, MatchesClosedForm) {
  RunningStats s;
  const std::vector<double> xs = {1.0, 2.0, 3.0, 4.0, 5.0};
  for (double x : xs) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 3.0);
  EXPECT_DOUBLE_EQ(s.variance(), 2.5);  // Unbiased sample variance.
  EXPECT_DOUBLE_EQ(s.stddev(), std::sqrt(2.5));
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 5.0);
  EXPECT_DOUBLE_EQ(s.sum(), 15.0);
}

TEST(RunningStats, MergeEqualsSequential) {
  RunningStats a, b, all;
  for (int i = 0; i < 50; ++i) {
    const double x = 0.37 * i - 3.0;
    (i % 2 == 0 ? a : b).add(x);
    all.add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-12);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-10);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(RunningStats, MergeWithEmptySides) {
  RunningStats a, empty;
  a.add(1.0);
  a.add(2.0);
  RunningStats a_copy = a;
  a.merge(empty);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_DOUBLE_EQ(a.mean(), a_copy.mean());
  empty.merge(a);
  EXPECT_EQ(empty.count(), 2u);
  EXPECT_DOUBLE_EQ(empty.mean(), 1.5);
}

TEST(RunningStats, NumericallyStableForLargeOffsets) {
  RunningStats s;
  for (int i = 0; i < 1000; ++i) s.add(1e9 + (i % 2 == 0 ? 0.5 : -0.5));
  EXPECT_NEAR(s.mean(), 1e9, 1e-3);
  EXPECT_NEAR(s.variance(), 0.25 * 1000.0 / 999.0, 1e-6);
}

TEST(BatchStats, MeanAndVariance) {
  const std::vector<double> xs = {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  EXPECT_DOUBLE_EQ(ace::util::mean(xs), 5.0);
  EXPECT_NEAR(ace::util::variance(xs), 32.0 / 7.0, 1e-12);
}

TEST(Quantile, InterpolatesBetweenOrderStatistics) {
  const std::vector<double> xs = {10.0, 20.0, 30.0, 40.0};
  EXPECT_DOUBLE_EQ(ace::util::quantile(xs, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(ace::util::quantile(xs, 1.0), 40.0);
  EXPECT_DOUBLE_EQ(ace::util::quantile(xs, 0.5), 25.0);
  EXPECT_DOUBLE_EQ(ace::util::median(xs), 25.0);
}

TEST(Quantile, RejectsBadInput) {
  EXPECT_THROW((void)ace::util::quantile({}, 0.5), std::invalid_argument);
  EXPECT_THROW((void)ace::util::quantile({1.0}, -0.1), std::invalid_argument);
  EXPECT_THROW((void)ace::util::quantile({1.0}, 1.1), std::invalid_argument);
}

TEST(Quantile, EndpointsAreSampleMinimumAndMaximum) {
  // q = 0 and q = 1 pick the extreme order statistics of an unsorted
  // sample, and agree with the streaming accumulator's min and max.
  const std::vector<double> xs = {7.0, -2.5, 4.0, 9.0, 4.0, 0.5};
  RunningStats s;
  for (double x : xs) s.add(x);
  EXPECT_DOUBLE_EQ(ace::util::quantile(xs, 0.0), -2.5);
  EXPECT_DOUBLE_EQ(ace::util::quantile(xs, 1.0), 9.0);
  EXPECT_DOUBLE_EQ(ace::util::quantile(xs, 0.0), s.min());
  EXPECT_DOUBLE_EQ(ace::util::quantile(xs, 1.0), s.max());
}

TEST(BatchStats, StddevIsRootOfVarianceAndEmptyIsZero) {
  const std::vector<double> xs = {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  EXPECT_DOUBLE_EQ(ace::util::stddev(xs), std::sqrt(32.0 / 7.0));
  EXPECT_DOUBLE_EQ(ace::util::mean({}), 0.0);
  EXPECT_DOUBLE_EQ(ace::util::variance({}), 0.0);
  EXPECT_DOUBLE_EQ(ace::util::variance({3.0}), 0.0);
}

}  // namespace
