// Error taxonomy of the fault-tolerant evaluation subsystem.
//
// Every evaluation the policy performs ends in exactly one of the typed
// outcomes below instead of a silent double: long optimization campaigns
// (the paper's SqueezeNet run simulated for 98 hours) must survive
// simulator faults, and the optimizers must be able to tell a real metric
// value from a placeholder produced by a faulted candidate.
#pragma once

#include <stdexcept>
#include <string>

namespace ace::dse {

/// Where an evaluation's value came from.
enum class EvalSource : unsigned char {
  kSimulated = 0,   ///< Fresh simulator call (recorded in the store).
  kInterpolated,    ///< Kriging estimate from neighbouring simulations.
  kExactHit,        ///< Served verbatim from the simulation store.
  kFaulted,         ///< No value could be produced; see EvalOutcome::fault.
};

/// Terminal fault classification of a failed evaluation.
enum class FaultCode : unsigned char {
  kNone = 0,           ///< No fault — the evaluation produced a value.
  kNonFinite,          ///< Simulator returned NaN/Inf on every attempt.
  kSimulatorThrow,     ///< Simulator threw on every attempt.
  kTimeout,            ///< Simulation exceeded the per-call deadline.
  kKrigingUnsolvable,  ///< Quarantined configuration whose interpolation
                       ///< fallback could not be solved either.
  kContractViolation,  ///< Simulator tripped a numerical contract
                       ///< (util::ContractViolation) — deterministic,
                       ///< never retried.
  // Checkpoint files serialize the enumerator value, so every code keeps
  // its number for good: new codes append, and none is ever removed.
  kWorkerLost,        ///< Retired (a lost worker process). Nothing produces
                      ///< it; kept so the codes below keep their values
                      ///< in existing checkpoint files.
  kLeaseExpired,      ///< Retired (a worker missing its heartbeat). Nothing
                      ///< produces it; kept for checkpoint compatibility.
  kCorruptPayload,    ///< A persisted payload failed its checksum or did
                      ///< not parse.
  kTruncatedPayload,  ///< A persisted payload ended mid-record (cut-off
                      ///< file, half-written line).
};

const char* to_string(EvalSource source);
const char* to_string(FaultCode code);

/// Typed parse/integrity failure of a persisted payload (checkpoint file,
/// trajectory CSV). Derives from std::runtime_error so pre-existing catch
/// sites keep working, but carries the FaultCode so callers can tell
/// truncation from garbage and route the failure into the quarantine/retry
/// machinery.
class PayloadError : public std::runtime_error {
 public:
  PayloadError(FaultCode code, const std::string& what)
      : std::runtime_error(what), code_(code) {}

  FaultCode code() const { return code_; }

 private:
  FaultCode code_;
};

}  // namespace ace::dse
