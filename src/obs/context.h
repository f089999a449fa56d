#ifndef VQDR_OBS_CONTEXT_H_
#define VQDR_OBS_CONTEXT_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include "obs/metrics.h"

// Per-operation context: the identity layer of live telemetry (DESIGN.md
// §11). Every *top-level* engine call — AnalyzeDeterminacy, a containment
// check, a chase build, a counterexample/monotonicity search, the batch
// decider — allocates a process-unique operation id and binds it to the
// calling thread for the call's duration:
//
//   obs::OpScope op(obs::OpKind::kSearch, "search.determinacy", budget);
//
// While bound, every span, counter increment, heartbeat, log record, and
// guard checkpoint the thread produces attributes to that operation. Engine
// calls nested inside an in-flight operation do NOT open a new one — the
// OpScope is a no-op passthrough, so a containment check issued by the
// analysis battery attributes to the battery's op, matching how a caller
// thinks about the work.
//
// par::ThreadPool carries the context across task boundaries: Submit()
// captures CurrentOpHandle() and runs the task under an OpTaskScope, so
// work-stolen shards attribute to the operation that spawned them, not to
// whichever worker happened to run them.

namespace vqdr::guard {
class Budget;
}  // namespace vqdr::guard

namespace vqdr::obs {

/// Process-unique operation id. 0 means "no operation".
using OpId = std::uint64_t;

/// What kind of top-level engine call an operation is.
enum class OpKind {
  kAnalyze,       // AnalyzeDeterminacy battery
  kDecide,        // DecideUnrestrictedDeterminacy (chase decision)
  kContainment,   // CqContainedIn / UcqContainedIn (and governed variants)
  kChase,         // BuildChaseChain
  kSearch,        // SearchDeterminacyCounterexample
  kMonotonicity,  // SearchMonotonicityViolation
  kBatch,         // DecideUnrestrictedDeterminacyBatch[Governed]
  kService,       // one vqdr-serve request (svc::Service::Handle)
  kOther,
};

/// Stable lowercase name ("analyze", "containment", ...).
inline const char* OpKindName(OpKind kind) {
  switch (kind) {
    case OpKind::kAnalyze:
      return "analyze";
    case OpKind::kDecide:
      return "decide";
    case OpKind::kContainment:
      return "containment";
    case OpKind::kChase:
      return "chase";
    case OpKind::kSearch:
      return "search";
    case OpKind::kMonotonicity:
      return "monotonicity";
    case OpKind::kBatch:
      return "batch";
    case OpKind::kService:
      return "service";
    case OpKind::kOther:
      return "other";
  }
  return "other";
}

/// Maximum live span-stack depth recorded per thread (deeper spans still
/// trace/profile normally; only the live stack view truncates).
inline constexpr int kThreadStackDepth = 16;

namespace internal {

/// The registry's record of one in-flight operation. Mutators are relaxed
/// atomics (hot paths); registration/deregistration and snapshots are
/// serialized by the registry mutex in registry.cc.
struct OpSlot : std::enable_shared_from_this<OpSlot> {
  OpId id = 0;
  OpKind kind = OpKind::kOther;
  /// Engine entry-point name; a string literal, or (for dynamically labeled
  /// ops, e.g. per-request service labels) a pointer into owned_label.
  const char* label = "";
  /// Backing storage when the label is built at runtime; set only at
  /// registration, never mutated while the slot is live.
  std::string owned_label;
  /// Microseconds since the telemetry epoch at registration.
  std::uint64_t start_us = 0;
  /// Liveness ticks: guard checkpoints, progress strides, pool progress.
  std::atomic<std::uint64_t> heartbeats{0};
  /// Pool tasks that ran under this operation.
  std::atomic<std::uint64_t> tasks{0};
  /// Innermost live trace-span name anywhere in the operation (a string
  /// literal); starts as `label`.
  std::atomic<const char*> phase{""};
  /// The governed call's budget, nulled at deregistration (under the
  /// registry mutex) so snapshots never chase a dangling pointer.
  std::atomic<vqdr::guard::Budget*> budget{nullptr};
  /// Per-op counter deltas, index-aligned with obs::OpCounterNames().
  OpMetricCells cells;
  /// Intrusive links of the registry's live-op list (registry.cc only,
  /// guarded by the registry mutex). The list holds raw pointers: a slot is
  /// always kept alive by its OpScope for the whole time it is linked.
  OpSlot* reg_prev = nullptr;
  OpSlot* reg_next = nullptr;
};

/// A thread's live span stack + current op binding, readable from the
/// watchdog/registry threads (all atomics; names are string literals).
struct ThreadSlot {
  std::uint32_t tid = 0;
  std::atomic<OpId> op_id{0};
  std::atomic<int> depth{0};
  std::array<std::atomic<const char*>, kThreadStackDepth> names{};
};

inline thread_local OpSlot* t_current_op = nullptr;

/// The calling thread's slot, registering one on first use.
ThreadSlot* EnsureThreadSlot();

/// Binds/unbinds `op` (may be null) to the calling thread: sets
/// t_current_op, the metrics attribution cells, and the thread slot's op id.
void BindOpToThread(OpSlot* op);

}  // namespace internal

/// Id of the operation the calling thread is bound to, or 0.
inline OpId CurrentOpId() {
  internal::OpSlot* op = internal::t_current_op;
  return op != nullptr ? op->id : 0;
}

/// Records `n` liveness ticks against the bound operation (no-op when none).
/// Fed by guard::Budget checkpoints, progress tickers, and pool progress;
/// the watchdog treats a frozen heartbeat count as the stall signal.
inline void OpHeartbeat(std::uint64_t n = 1) {
  internal::OpSlot* op = internal::t_current_op;
  if (op != nullptr) op->heartbeats.fetch_add(n, std::memory_order_relaxed);
}

/// RAII: opens (and registers) a new operation unless the thread is already
/// inside one, in which case it is a no-op passthrough. `label` must be a
/// string literal; `budget` (optional) lets the registry report the op's
/// budget state and is forgotten before the scope closes.
class OpScope {
 public:
  OpScope(OpKind kind, const char* label,
          vqdr::guard::Budget* budget = nullptr);
  /// Dynamically labeled variant (per-request service ops): the label is
  /// copied into the op slot, so it need not outlive the call.
  OpScope(OpKind kind, std::string label,
          vqdr::guard::Budget* budget = nullptr);
  ~OpScope();

  OpScope(const OpScope&) = delete;
  OpScope& operator=(const OpScope&) = delete;

  /// This scope's op id; 0 for a nested passthrough scope.
  OpId id() const { return slot_ != nullptr ? slot_->id : 0; }

 private:
  std::shared_ptr<internal::OpSlot> slot_;
};

/// A copyable, owning reference to an in-flight operation, used to carry the
/// context across thread-pool task boundaries.
class OpHandle {
 public:
  OpHandle() = default;
  explicit operator bool() const { return slot_ != nullptr; }

 private:
  friend OpHandle CurrentOpHandle();
  friend class OpTaskScope;
  std::shared_ptr<internal::OpSlot> slot_;
};

/// Handle to the calling thread's bound operation (empty when none).
inline OpHandle CurrentOpHandle() {
  OpHandle h;
  internal::OpSlot* op = internal::t_current_op;
  if (op != nullptr) h.slot_ = op->shared_from_this();
  return h;
}

/// RAII: binds a captured operation to the executing (pool worker) thread
/// for one task, restoring the worker's previous binding afterwards.
class OpTaskScope {
 public:
  explicit OpTaskScope(const OpHandle& handle);
  ~OpTaskScope();

  OpTaskScope(const OpTaskScope&) = delete;
  OpTaskScope& operator=(const OpTaskScope&) = delete;

 private:
  std::shared_ptr<internal::OpSlot> slot_;
  internal::OpSlot* prev_ = nullptr;
};

}  // namespace vqdr::obs

#include "obs/obs_macros.h"

#endif  // VQDR_OBS_CONTEXT_H_
