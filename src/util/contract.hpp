// Numerical contracts: debug-checked, release-free invariants.
//
// Kriging correctness rests on silent mathematical preconditions — valid
// (conditionally negative-definite) variogram models, non-zero pivots in
// a successful LU factor, kriging weights summing to 1 — that a
// wrong-but-finite number sails straight through the NaN guards of the
// fault subsystem.
// The ACE_REQUIRE / ACE_ENSURE / ACE_INVARIANT macros make those
// preconditions, postconditions and invariants *checkable*: active in
// Debug builds (and any TU compiled with -DACE_CONTRACTS=1), compiled out
// entirely in Release (-DNDEBUG), where they expand to `((void)0)` — the
// condition is not even evaluated, so contracts add zero release overhead.
//
// Policy (see DESIGN.md §8): a contract states something that is *always*
// true of correct code — a violation is a programming error, never an
// environmental condition. Data-dependent failures (a singular kriging
// system, a non-finite simulator result, a malformed checkpoint file) keep
// their unconditional typed exceptions; contracts cover what only a bug
// can break.
//
// A firing contract throws ContractViolation, which derives from
// std::invalid_argument so existing call sites treating bad inputs as
// invalid-argument errors keep working, and which the retry guard
// (util::call_with_retry) classifies as CallFault::kContractViolation —
// deterministic, so it is never retried, and the evaluation policy
// quarantines the offending configuration under
// dse::FaultCode::kContractViolation.
#pragma once

#include <stdexcept>
#include <string>

namespace ace::util {

/// A violated ACE_REQUIRE / ACE_ENSURE / ACE_INVARIANT.
class ContractViolation : public std::invalid_argument {
 public:
  enum class Kind { kRequire, kEnsure, kInvariant };

  ContractViolation(Kind kind, const char* condition, const char* file,
                    int line, const std::string& detail);

  Kind kind() const { return kind_; }
  const char* condition() const { return condition_; }
  const char* file() const { return file_; }
  int line() const { return line_; }

 private:
  Kind kind_;
  const char* condition_;  ///< Stringified condition (static storage).
  const char* file_;       ///< Source file (static storage).
  int line_;
};

const char* to_string(ContractViolation::Kind kind);

/// Build the message and throw. Out of line so the macro expansion stays
/// small at every check site.
[[noreturn]] void raise_contract_violation(ContractViolation::Kind kind,
                                           const char* condition,
                                           const char* file, int line,
                                           const std::string& detail);

}  // namespace ace::util

// ACE_CONTRACTS_ENABLED: 1 when contracts are checked in this TU.
// Override per-TU with -DACE_CONTRACTS=0/1 (the contract self-tests
// compile one TU each way); otherwise follows NDEBUG.
#if defined(ACE_CONTRACTS)
#define ACE_CONTRACTS_ENABLED ACE_CONTRACTS
#elif defined(NDEBUG)
#define ACE_CONTRACTS_ENABLED 0
#else
#define ACE_CONTRACTS_ENABLED 1
#endif

#if ACE_CONTRACTS_ENABLED

#define ACE_CONTRACT_CHECK_(kind, cond, detail)                             \
  (static_cast<bool>(cond)                                                  \
       ? (void)0                                                            \
       : ::ace::util::raise_contract_violation(                             \
             ::ace::util::ContractViolation::Kind::kind, #cond, __FILE__,   \
             __LINE__, (detail)))

#else

// The disabled form must still *mention* cond and detail (unevaluated,
// via sizeof) so parameters used only in contracts do not trip
// -Wunused-parameter under warnings-as-errors Release builds.
#define ACE_CONTRACT_CHECK_(kind, cond, detail) \
  ((void)sizeof(static_cast<bool>(cond)), (void)sizeof((detail), 0))

#endif

// Each macro takes a condition and an optional detail message:
//   ACE_REQUIRE(n > 0);
//   ACE_REQUIRE(n > 0, "support set must be non-empty");
#define ACE_CONTRACT_PICK_(a, b, chosen, ...) chosen
#define ACE_CONTRACT_1_(kind, cond) ACE_CONTRACT_CHECK_(kind, cond, "")
#define ACE_CONTRACT_2_(kind, cond, detail) \
  ACE_CONTRACT_CHECK_(kind, cond, detail)
#define ACE_CONTRACT_DISPATCH_(kind, ...)                                \
  ACE_CONTRACT_PICK_(__VA_ARGS__, ACE_CONTRACT_2_, ACE_CONTRACT_1_, )    \
  (kind, __VA_ARGS__)

/// Precondition: what the caller must guarantee on entry.
#define ACE_REQUIRE(...) ACE_CONTRACT_DISPATCH_(kRequire, __VA_ARGS__)

/// Postcondition: what the function guarantees on exit.
#define ACE_ENSURE(...) ACE_CONTRACT_DISPATCH_(kEnsure, __VA_ARGS__)

/// Invariant: what must hold at this point in any correct execution.
#define ACE_INVARIANT(...) ACE_CONTRACT_DISPATCH_(kInvariant, __VA_ARGS__)
