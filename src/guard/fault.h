#ifndef VQDR_GUARD_FAULT_H_
#define VQDR_GUARD_FAULT_H_

#include <cstdint>
#include <new>
#include <stdexcept>

// Deterministic fault injection for the chaos battery. A test arms exactly
// one fault — a kind, an optional site filter, and a 1-based hit ordinal —
// and the corresponding fault point fires at exactly that probe:
//
//   guard::ArmFault(guard::FaultKind::kAllocFailure, "chase.view_inverse", 7);
//   ChaseChain chain = BuildChaseChain(...);   // 7th chased tuple throws
//   EXPECT_EQ(chain.outcome, guard::Outcome::kInternalError);
//   guard::DisarmFaults();
//
// Arm/Disarm must not race live engine calls: arm before the call under
// test, disarm after it returns (the probes themselves are thread-safe and
// run concurrently inside parallel engines).

namespace vqdr::guard {

/// The failure modes the injector can force.
enum class FaultKind {
  /// The fault point throws InjectedAllocFailure (an std::bad_alloc),
  /// simulating memory exhaustion mid-materialization.
  kAllocFailure,
  /// The fault point throws InjectedTaskError before a chunk of
  /// par::ParallelForChunks runs, or in a service request handler; the
  /// chunk call must capture it, run the other chunks, and report it, and
  /// the service must answer "internal".
  kTaskThrow,
  /// Budget::Checkpoint trips kCancelled once the governed call's step
  /// counter reaches the armed ordinal — cancellation at exactly step N.
  kCancel,
  /// Budget::Checkpoint SLEEPS once (for the armed duration) when the step
  /// counter reaches the ordinal, then continues normally: a result-neutral
  /// injected hang for exercising the obs::Watchdog stall detector.
  kStall,
};

class InjectedAllocFailure : public std::bad_alloc {
 public:
  const char* what() const noexcept override {
    return "vqdr::guard injected allocation failure";
  }
};

class InjectedTaskError : public std::runtime_error {
 public:
  InjectedTaskError() : std::runtime_error("vqdr::guard injected task error") {}
};

/// Arms one fault (replacing any previous one). `site` filters which fault
/// points count probes; nullptr or "" matches every site of the kind.
/// `at_hit` is 1-based: the at_hit-th matching probe fires. For kCancel the
/// ordinal is a *step number*: the first Budget::Checkpoint at or past it
/// trips. Must not be called while a governed call is running.
void ArmFault(FaultKind kind, const char* site, std::uint64_t at_hit);

/// Disarms; subsequent probes are a single relaxed atomic load.
void DisarmFaults();

bool FaultsArmed();

/// Probes of the armed (kind, site) observed so far.
std::uint64_t FaultProbes();

/// True once the armed fault has fired.
bool FaultFired();

/// Probe for throwing fault kinds; throws when the armed fault fires here.
/// Called by the VQDR_FAULT_* macros — engines do not call it directly.
void MaybeInjectThrow(FaultKind kind, const char* site);

/// Probe for the kCancel kind, consulted by Budget::Checkpoint with the
/// call's cumulative step count. Fires (returns true) exactly once.
bool CancelFaultDue(std::uint64_t steps_reached);

/// Arms a kStall fault: the first Budget::Checkpoint at or past `at_step`
/// sleeps for `sleep_ms` and then proceeds unchanged. Same discipline as
/// ArmFault: never while a governed call is running.
void ArmStallFault(std::uint64_t at_step, std::uint64_t sleep_ms);

/// Probe for the kStall kind; returns the sleep duration in ms when this
/// checkpoint is the one that stalls (exactly once), else 0.
std::uint64_t StallFaultDue(std::uint64_t steps_reached);

}  // namespace vqdr::guard

// Fault points on the engine hot paths. Site names are stable identifiers
// ("search.instances", "chase.view_inverse", "cq.pattern", "pool.task").
#define VQDR_FAULT_ALLOC(site) \
  ::vqdr::guard::MaybeInjectThrow(::vqdr::guard::FaultKind::kAllocFailure, site)
#define VQDR_FAULT_TASK(site) \
  ::vqdr::guard::MaybeInjectThrow(::vqdr::guard::FaultKind::kTaskThrow, site)

#endif  // VQDR_GUARD_FAULT_H_
