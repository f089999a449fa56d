#ifndef VQDR_GUARD_BUDGET_H_
#define VQDR_GUARD_BUDGET_H_

#include <atomic>
#include <chrono>
#include <cstdint>

#include "guard/outcome.h"

// Resource governance for the long-running engines. A caller builds one
// Budget per governed call (or shares one across a batch so the whole batch
// lives inside one envelope) and passes its address through the engine's
// options; the engine checkpoints at step granularity and stops cleanly —
// returning everything computed so far, never a fabricated verdict — when a
// limit trips:
//
//   guard::Budget budget(guard::BudgetSpec{.wall_ms = 2000});
//   EnumerationOptions opts;
//   opts.budget = &budget;
//   DeterminacySearchResult r = SearchDeterminacyCounterexample(v, q, s, opts);
//   if (!guard::IsComplete(r.outcome)) { /* partial prefix, honest stop */ }
//
// Budgets are thread-safe: the parallel engines checkpoint the same Budget
// from every worker. Once a limit trips the stop reason is sticky; every
// later Checkpoint returns it immediately.
//
// Budgets compose: a Budget constructed with a parent charges every step and
// atom against the parent as well, so a shared envelope (one batch, one
// tenant, one service request) bounds the sum of its children while each
// child keeps its own tighter per-item limits. The tightest limit wins —
// whichever budget trips first stops the work — and a parent's sticky stop
// propagates into the child at its next checkpoint (the reverse never
// happens: one exhausted child does not stop its siblings).

namespace vqdr::guard {

/// Observer invoked (when installed) with the step count of every
/// Budget::Checkpoint. This is how the obs layer, which sits ABOVE guard in
/// the link order, hears engine liveness without guard depending on it:
/// obs/context.cc installs a hook that turns checkpoints into per-operation
/// heartbeats for the registry and the stall watchdog. Install-once at
/// startup; the probe is a single relaxed load when no observer is set.
using CheckpointObserver = void (*)(std::uint64_t steps);

/// Declarative limits for one governed call. Zero / negative fields mean
/// "unlimited"; a default BudgetSpec imposes nothing.
struct BudgetSpec {
  /// Wall-clock allowance in milliseconds, armed when the Budget is
  /// constructed. < 0 = no deadline; values above kMaxWaitMs (base/env.h)
  /// arm a deadline kMaxWaitMs away.
  std::int64_t wall_ms = -1;

  /// Maximum work steps. A step is the engine's natural unit: an instance
  /// examined (searches), an identification pattern checked (containment),
  /// a view tuple chased (chase/determinacy), an item decided (batch).
  /// 0 = unlimited.
  std::uint64_t max_steps = 0;

  /// Maximum materialized atoms across the call — the memory proxy for the
  /// chase, whose instances are the only unbounded allocations in the
  /// library. 0 = unlimited.
  std::uint64_t max_atoms = 0;

  /// Maximum chase-chain levels to build. < 0 = unlimited.
  int max_chase_levels = -1;
};

/// Installs (or, with nullptr, removes) the process-wide checkpoint
/// observer. Not for per-call use: the slot is a single atomic pointer.
void SetCheckpointObserver(CheckpointObserver observer);

class Budget {
 public:
  /// An unlimited budget (still cancellable).
  Budget() : Budget(BudgetSpec{}) {}

  /// Arms the wall-clock deadline now. `parent`, when non-null, is a shared
  /// envelope also charged by every Checkpoint/NoteAtoms on this budget; it
  /// must outlive this budget. A stopped parent stops this budget too.
  explicit Budget(const BudgetSpec& spec, Budget* parent = nullptr);

  Budget(const Budget&) = delete;
  Budget& operator=(const Budget&) = delete;

  /// Records `steps` completed work units and re-checks the limits. The
  /// deadline is checked amortized (once per kClockStride recorded steps),
  /// so a checkpointing loop pays a relaxed fetch_add per call and a clock
  /// read every few dozen steps. Returns kComplete while within budget;
  /// otherwise the sticky stop reason.
  Outcome Checkpoint(std::uint64_t steps = 1);

  /// Records `atoms` newly materialized atoms against max_atoms.
  Outcome NoteAtoms(std::uint64_t atoms);

  /// External cancellation; sticky like any other stop.
  void Cancel() { Trip(Outcome::kCancelled); }

  /// Records a captured engine-internal failure (task exception, allocation
  /// failure). kInternalError outranks every other stop reason.
  void MarkInternalError() { Trip(Outcome::kInternalError); }

  bool Stopped() const {
    return stop_.load(std::memory_order_relaxed) != 0;
  }

  /// The sticky stop reason; kComplete while the budget still allows work.
  Outcome stop_reason() const {
    return static_cast<Outcome>(stop_.load(std::memory_order_relaxed));
  }

  std::uint64_t steps_used() const {
    return steps_.load(std::memory_order_relaxed);
  }

  std::uint64_t atoms_used() const {
    return atoms_.load(std::memory_order_relaxed);
  }

  /// Whether the spec admits building chase level `level` (1-based).
  bool AllowsChaseLevel(int level) const {
    return spec_.max_chase_levels < 0 || level <= spec_.max_chase_levels;
  }

  const BudgetSpec& spec() const { return spec_; }

  /// The shared envelope this budget charges, or nullptr.
  Budget* parent() const { return parent_; }

  /// Steps between amortized deadline checks.
  static constexpr std::uint64_t kClockStride = 64;

 private:
  /// Latches the first stop reason (kInternalError may still overwrite a
  /// softer reason); returns the latched value.
  Outcome Trip(Outcome o);

  Budget* parent_ = nullptr;
  BudgetSpec spec_;
  bool has_deadline_ = false;
  std::chrono::steady_clock::time_point deadline_;
  std::atomic<std::uint64_t> steps_{0};
  std::atomic<std::uint64_t> atoms_{0};
  std::atomic<std::uint64_t> until_clock_check_{kClockStride};
  std::atomic<int> stop_{0};
};

/// Null-tolerant checkpoint for engine hot paths: no budget, no cost beyond
/// the null test.
inline Outcome Check(Budget* budget, std::uint64_t steps = 1) {
  return budget == nullptr ? Outcome::kComplete : budget->Checkpoint(steps);
}

/// Null-tolerant atom accounting.
inline Outcome CheckAtoms(Budget* budget, std::uint64_t atoms) {
  return budget == nullptr ? Outcome::kComplete : budget->NoteAtoms(atoms);
}

/// Null-tolerant sticky-stop query.
inline Outcome StopReason(const Budget* budget) {
  return budget == nullptr ? Outcome::kComplete : budget->stop_reason();
}

}  // namespace vqdr::guard

#endif  // VQDR_GUARD_BUDGET_H_
