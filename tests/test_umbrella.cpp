// Smoke test: the umbrella header compiles standalone and the major
// subsystems cooperate in one flow.
#include "ace.hpp"

#include <gtest/gtest.h>

namespace {

TEST(Umbrella, EndToEndSmoke) {
  // A toy end-to-end pass: min+1 through the kriging policy.
  auto simulator = [](const ace::dse::Config& w) {
    double lambda = 0.0;
    for (int wi : w) lambda += 7.0 * wi;
    return lambda;
  };
  ace::dse::PolicyOptions policy;
  policy.distance = 3;
  ace::dse::KrigingPolicy kriging(policy);
  ace::dse::MinPlusOneOptions options;
  options.nv = 3;
  options.w_min = 2;
  options.w_max = 12;
  options.lambda_min = 150.0;
  const auto result = ace::dse::min_plus_one(
      ace::dse::policy_evaluator(kriging, simulator), options);
  EXPECT_TRUE(result.constraint_met);
  EXPECT_GT(kriging.stats().total, 0u);
}

}  // namespace
