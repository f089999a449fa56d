#ifndef VQDR_OBS_WATCHDOG_H_
#define VQDR_OBS_WATCHDOG_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "obs/registry.h"

// Stall watchdog (DESIGN.md §11): a sampling thread that watches the
// in-flight op registry and raises a structured report when an operation
// stops making progress — heartbeats frozen, phase unchanged, budget steps
// flat — for longer than the configured interval.
//
// Progress is fed by heartbeats the engines already emit: every
// guard::Budget checkpoint, plus one obs::OpHeartbeat per search instance
// and chase level of an ungoverned call. The watchdog only
// OBSERVES: it never cancels, never unblocks, never alters a verdict.
// Exactly one report is emitted per stall; if the op resumes, the trigger
// re-arms.
//
//   VQDR_WATCHDOG_MS=2000 ./determinacy_tool ...   # report 2s stalls

namespace vqdr::obs {

/// Everything known about a stall at detection time.
struct StallReport {
  /// Wall-clock stamp of the report.
  std::uint64_t unix_ms = 0;
  /// The no-progress threshold that tripped, in milliseconds.
  std::uint64_t stall_ms = 0;
  /// How long the op had shown no progress when the report fired.
  std::uint64_t quiet_ms = 0;
  /// The stalled operation (with its per-op counter deltas).
  OpSnapshot op;
  /// Every in-flight operation at detection time.
  std::vector<OpSnapshot> all_ops;
  /// Last-known live span stack of every known thread.
  std::vector<ThreadStackSnapshot> threads;

  /// One JSON object: {"event":"stall","unix_ms":...,"op":{...},
  /// "all_ops":[...],"threads":[{"tid":..,"op":..,"spans":[...]},...]}.
  std::string ToJson() const;
};

/// Starts the watchdog (idempotent; false if already running, if stall_ms
/// is 0, or if it exceeds kMaxWaitMs from base/env.h). It samples the
/// registry every stall_ms/4, clamped to [10ms, 1s]. Reports go to the stall
/// callback when one is set, otherwise to stderr as one JSON line.
bool StartWatchdog(std::uint64_t stall_ms);

/// Stops and joins the watchdog thread if running.
void StopWatchdog();

bool WatchdogRunning();

/// Test/embedding seam: receive reports instead of the stderr line. Must be
/// thread-safe; called from the watchdog thread. Pass nullptr to restore.
void SetStallCallback(std::function<void(const StallReport&)> callback);

/// Total stall reports emitted since process start.
std::uint64_t WatchdogStallReports();

/// Reads VQDR_WATCHDOG_MS and starts the watchdog when it names a positive
/// integer no larger than kMaxWaitMs (parsed by ParseEnvUint, base/env.h).
/// Called once from the first OpScope; exposed for tools/tests.
void InitWatchdogFromEnv();

}  // namespace vqdr::obs

#endif  // VQDR_OBS_WATCHDOG_H_
