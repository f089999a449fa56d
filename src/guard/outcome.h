#ifndef VQDR_GUARD_OUTCOME_H_
#define VQDR_GUARD_OUTCOME_H_

#include <string>

#include "base/status.h"

namespace vqdr::guard {

/// How a governed engine call ended. Everything the paper makes the library
/// compute is worst-case explosive or undecidable, so every long-running
/// entry point carries one of these instead of pretending it always runs to
/// completion. kComplete is the only value under which a boolean verdict
/// (determined / contained / none-within-bound) may be trusted; every other
/// value means "here is the prefix of work that finished, and why it
/// stopped".
enum class Outcome {
  kComplete = 0,
  /// The wall-clock deadline of the governing Budget passed.
  kDeadlineExceeded,
  /// The step allowance (instances examined, patterns checked, tuples
  /// chased, chase levels built) ran out.
  kStepBudgetExhausted,
  /// The materialized-atom allowance (the memory proxy) ran out.
  kMemoryBudgetExhausted,
  /// Budget::Cancel() was called, from any thread.
  kCancelled,
  /// A task exception, allocation failure, or injected fault was captured;
  /// the engine unwound cleanly but computed no verdict.
  kInternalError,
};

constexpr bool IsComplete(Outcome o) { return o == Outcome::kComplete; }

/// Stable short name ("COMPLETE", "DEADLINE_EXCEEDED", ...).
const char* OutcomeName(Outcome o);

/// Join in the outcome lattice: kComplete is bottom, kInternalError is top,
/// and between them severity follows declaration order (deadline < steps <
/// memory < cancelled < internal). Used to fold per-item and per-phase
/// outcomes into one verdict for a batch or a report.
Outcome MergeOutcome(Outcome a, Outcome b);

/// Maps an outcome to a Status for fallible APIs: kComplete -> OK;
/// deadline/step/memory exhaustion -> kResourceExhausted; kCancelled ->
/// kCancelled; kInternalError -> kInternal. `context` names the call that
/// stopped ("chase chain", "determinacy batch", ...).
Status OutcomeToStatus(Outcome o, const std::string& context);

}  // namespace vqdr::guard

#endif  // VQDR_GUARD_OUTCOME_H_
