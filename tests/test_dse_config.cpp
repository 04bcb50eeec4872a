#include "dse/config.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <unordered_set>

namespace {

namespace d = ace::dse;

TEST(ConfigDistance, L1Basics) {
  EXPECT_EQ(d::l1_distance({1, 2, 3}, {1, 2, 3}), 0);
  EXPECT_EQ(d::l1_distance({0, 0}, {3, -4}), 7);
  EXPECT_EQ(d::l1_distance({10}, {7}), 3);
  EXPECT_THROW((void)d::l1_distance({1}, {1, 2}), std::invalid_argument);
}

TEST(ConfigToReal, ConvertsExactly) {
  const auto r = d::to_real({-2, 0, 7});
  ASSERT_EQ(r.size(), 3u);
  EXPECT_DOUBLE_EQ(r[0], -2.0);
  EXPECT_DOUBLE_EQ(r[2], 7.0);
  EXPECT_TRUE(d::to_real({}).empty());
}

TEST(ConfigToString, Formats) {
  EXPECT_EQ(d::to_string({1, 2, 3}), "(1, 2, 3)");
  EXPECT_EQ(d::to_string({}), "()");
  EXPECT_EQ(d::to_string({-5}), "(-5)");
}

TEST(ConfigHash, DistinguishesPermutations) {
  d::ConfigHash h;
  EXPECT_NE(h({1, 2}), h({2, 1}));
  EXPECT_EQ(h({3, 4, 5}), h({3, 4, 5}));
  // Usable as an unordered_set key.
  std::unordered_set<d::Config, d::ConfigHash> set;
  set.insert({1, 2});
  set.insert({1, 2});
  set.insert({2, 1});
  EXPECT_EQ(set.size(), 2u);
}

TEST(ConfigHash, PinnedFnv1aValues) {
  // The hash seeds FaultInjectingSimulator's per-configuration fault draw
  // (dse/fault_injection.cpp), so its values are part of a faulted run's
  // reproducibility: FNV-1a-64 over the 32-bit words.
  d::ConfigHash h;
  EXPECT_EQ(h({}), 1469598103934665603ULL);  // The offset basis.
  EXPECT_EQ(h({0}), 1469598103934665603ULL * 1099511628211ULL);
  EXPECT_EQ(h({1}), (1469598103934665603ULL ^ 1ULL) * 1099511628211ULL);
  EXPECT_EQ(h({-1}),
            (1469598103934665603ULL ^ 0xffffffffULL) * 1099511628211ULL);
}

}  // namespace
