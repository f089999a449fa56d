#ifndef VQDR_OBS_REGISTRY_H_
#define VQDR_OBS_REGISTRY_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "obs/context.h"

// The in-flight operation registry: the answer to "what is this process
// doing right now?" (DESIGN.md §11). Every obs::OpScope registers itself
// here for its lifetime; SnapshotOps() reads the table without stopping the
// work — one short mutex hold plus relaxed atomic reads of each op's
// counters, heartbeats, phase, and budget state.
//
// Surfaces:
//   - determinacy_tool --ops       renders the table after each scenario
//   - VQDR_OPS_DUMP_MS=<n>         background thread dumps JSON to stderr
//   - obs::Watchdog                embeds a snapshot in stall reports

namespace vqdr::obs {

/// Budget state of an op at snapshot time (zeroes when the op is ungoverned).
struct OpBudgetSnapshot {
  bool present = false;
  bool stopped = false;
  std::uint64_t steps = 0;
  std::uint64_t max_steps = 0;  // 0 = unlimited
};

/// One operation as seen at snapshot time.
struct OpSnapshot {
  OpId id = 0;
  OpKind kind = OpKind::kOther;
  std::string label;
  /// Innermost live span name anywhere in the op ("" before the first span).
  std::string phase;
  std::uint64_t start_us = 0;  // telemetry-epoch microseconds
  std::uint64_t age_us = 0;    // snapshot time minus start
  std::uint64_t heartbeats = 0;
  std::uint64_t tasks = 0;
  bool done = false;  // only in RecentCompletedOps results
  OpBudgetSnapshot budget;
  /// Per-op counter deltas, name -> count, zero entries dropped.
  std::map<std::string, std::uint64_t> counters;
};

/// One thread's live span stack at snapshot time.
struct ThreadStackSnapshot {
  std::uint32_t tid = 0;
  OpId op_id = 0;
  std::vector<std::string> spans;  // outermost first
};

/// All in-flight operations, ordered by id (registration order).
std::vector<OpSnapshot> SnapshotOps();

/// The single in-flight op `id`, or an all-defaults snapshot (id 0) when no
/// such op is live.
OpSnapshot SnapshotOp(OpId id);

/// Cancels the budget of the in-flight op `id` (guard::Budget::Cancel).
/// Returns false when no such op is live or the op is ungoverned. The
/// budget is read under the registry mutex, which the op's scope also takes
/// to detach it, so a cancel never reaches a budget whose scope has ended.
bool CancelOp(OpId id);

/// Live span stacks of every running thread that has opened a span or bound
/// an op, ordered by dense trace tid. Threads currently outside any span
/// report an empty stack; exited threads are not listed.
std::vector<ThreadStackSnapshot> SnapshotThreadStacks();

/// Keep the most recent `n` completed ops for RecentCompletedOps (default 0:
/// completed ops vanish at scope exit). Thread-safe; trimming is immediate.
void SetKeepCompletedOps(std::size_t n);

/// Most recently completed ops, newest first, up to the configured keep
/// count. Each has done=true and age_us frozen at completion.
std::vector<OpSnapshot> RecentCompletedOps();

/// Renders op snapshots as a JSON array (one object per op, stable field
/// order). `unix_ms` stamps the snapshot; pass 0 to omit the wrapper and
/// emit the bare array.
std::string OpsToJson(const std::vector<OpSnapshot>& ops,
                      std::uint64_t unix_ms = 0);

/// Human-readable multi-line table of op snapshots for --ops.
std::string RenderOpsText(const std::vector<OpSnapshot>& ops);

/// Starts (idempotently) a background thread that writes an ops snapshot as
/// one JSON line to stderr every `interval_ms`. Returns false when a dumper
/// is already running, or when interval_ms is 0 or exceeds kMaxWaitMs
/// (base/env.h).
bool StartOpsDump(std::uint64_t interval_ms);

/// Stops the periodic dumper if one is running.
void StopOpsDump();

/// Reads VQDR_OPS_DUMP_MS and starts the dumper when it names a positive
/// integer no larger than kMaxWaitMs (parsed by ParseEnvUint, base/env.h).
/// Called once from the first OpScope; exposed for tools/tests.
void InitOpsDumpFromEnv();

/// Microseconds since the telemetry epoch (process-stable monotonic base).
std::uint64_t TelemetryNowUs();

namespace internal {
/// OpScope registration seam (context.cc only). The const char* variant
/// requires a string literal; the std::string variant copies the label into
/// the slot for dynamically named ops.
std::shared_ptr<OpSlot> RegisterOp(OpKind kind, const char* label,
                                   vqdr::guard::Budget* budget);
std::shared_ptr<OpSlot> RegisterOp(OpKind kind, std::string label,
                                   vqdr::guard::Budget* budget);
void UnregisterOp(const std::shared_ptr<OpSlot>& op);
/// Appends one op as a JSON object (shared with the watchdog's reports).
void AppendOpJson(const OpSnapshot& op, std::string* out);
}  // namespace internal

}  // namespace vqdr::obs

#endif  // VQDR_OBS_REGISTRY_H_
