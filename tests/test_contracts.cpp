// Numerical-contract tests that follow the build's own contract mode
// (ACE_CONTRACTS_ENABLED == !NDEBUG here): library-level contracts fire in
// Debug and are compiled out in Release. The macro-level force-on /
// force-off tests live in contracts_force_on.cpp / contracts_force_off.cpp,
// which pin ACE_CONTRACTS per translation unit so both modes are exercised
// regardless of build type.
#include "util/contract.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "kriging/variogram_model.hpp"
#include "util/retry.hpp"

namespace {

using ace::util::ContractViolation;

TEST(ContractViolation, CarriesKindConditionAndLocation) {
  try {
    ace::util::raise_contract_violation(ContractViolation::Kind::kEnsure,
                                        "x > 0", "some_file.cpp", 42,
                                        "x must be positive");
    FAIL() << "raise_contract_violation returned";
  } catch (const ContractViolation& e) {
    EXPECT_EQ(e.kind(), ContractViolation::Kind::kEnsure);
    EXPECT_STREQ(e.condition(), "x > 0");
    EXPECT_STREQ(e.file(), "some_file.cpp");
    EXPECT_EQ(e.line(), 42);
    const std::string msg = e.what();
    EXPECT_NE(msg.find("[ensure]"), std::string::npos);
    EXPECT_NE(msg.find("some_file.cpp:42"), std::string::npos);
    EXPECT_NE(msg.find("x > 0"), std::string::npos);
    EXPECT_NE(msg.find("x must be positive"), std::string::npos);
  }
}

TEST(ContractViolation, IsAnInvalidArgument) {
  // Existing call sites catch std::invalid_argument for bad-input errors;
  // contracts must remain visible through that lens.
  EXPECT_THROW(
      ace::util::raise_contract_violation(ContractViolation::Kind::kRequire,
                                          "cond", "f.cpp", 1, ""),
      std::invalid_argument);
}

TEST(ContractViolation, KindNames) {
  EXPECT_STREQ(ace::util::to_string(ContractViolation::Kind::kRequire),
               "require");
  EXPECT_STREQ(ace::util::to_string(ContractViolation::Kind::kEnsure),
               "ensure");
  EXPECT_STREQ(ace::util::to_string(ContractViolation::Kind::kInvariant),
               "invariant");
}

// --- library-level contracts (active iff the library was built Debug) ----

TEST(LibraryContracts, NegativeSillVariogram) {
#if ACE_CONTRACTS_ENABLED
  EXPECT_THROW(ace::kriging::SphericalVariogram(0.0, -1.0, 2.0),
               ContractViolation);
#else
  EXPECT_NO_THROW(ace::kriging::SphericalVariogram(0.0, -1.0, 2.0));
#endif
}

TEST(LibraryContracts, PowerVariogramExponentOutsideOpenInterval) {
  // γ(h) = c·h^α is a valid variogram only for 0 < α < 2.
#if ACE_CONTRACTS_ENABLED
  EXPECT_THROW(ace::kriging::PowerVariogram(0.0, 1.0, 2.0), ContractViolation);
  EXPECT_THROW(ace::kriging::PowerVariogram(0.0, 1.0, 0.0), ContractViolation);
#else
  EXPECT_NO_THROW(ace::kriging::PowerVariogram(0.0, 1.0, 2.0));
  EXPECT_NO_THROW(ace::kriging::PowerVariogram(0.0, 1.0, 0.0));
#endif
  EXPECT_NO_THROW(ace::kriging::PowerVariogram(0.0, 1.0, 1.5));
}

TEST(LibraryContracts, NonPositiveVariogramRange) {
#if ACE_CONTRACTS_ENABLED
  EXPECT_THROW(ace::kriging::ExponentialVariogram(0.0, 1.0, 0.0),
               ContractViolation);
  EXPECT_THROW(ace::kriging::GaussianVariogram(0.0, 1.0, -1.0),
               ContractViolation);
#else
  EXPECT_NO_THROW(ace::kriging::ExponentialVariogram(0.0, 1.0, 0.0));
  EXPECT_NO_THROW(ace::kriging::GaussianVariogram(0.0, 1.0, -1.0));
#endif
}

// --- retry-guard classification ------------------------------------------

TEST(RetryGuard, ContractViolationIsNeverRetried) {
  ace::util::RetryOptions options;
  options.max_attempts = 5;
  std::size_t calls = 0;
  const ace::util::GuardedCall result =
      ace::util::call_with_retry(options, [&]() -> double {
        ++calls;
        ace::util::raise_contract_violation(ContractViolation::Kind::kRequire,
                                            "always false", "sim.cpp", 7,
                                            "deterministic bug");
      });
  // A tripped contract is deterministic: one attempt, no retries, typed
  // fault classification.
  EXPECT_EQ(calls, 1u);
  EXPECT_EQ(result.attempts, 1u);
  EXPECT_EQ(result.faulted_attempts, 1u);
  EXPECT_EQ(result.fault, ace::util::CallFault::kContractViolation);
  EXPECT_NE(result.message.find("deterministic bug"), std::string::npos);
  EXPECT_STREQ(ace::util::to_string(result.fault), "contract-violation");
}

TEST(RetryGuard, OrdinaryExceptionStillRetries) {
  ace::util::RetryOptions options;
  options.max_attempts = 3;
  std::size_t calls = 0;
  const ace::util::GuardedCall result =
      ace::util::call_with_retry(options, [&]() -> double {
        ++calls;
        throw std::runtime_error("transient");
      });
  EXPECT_EQ(calls, 3u);
  EXPECT_EQ(result.fault, ace::util::CallFault::kThrew);
}

}  // namespace
