#ifndef VQDR_SVC_SERVICE_H_
#define VQDR_SVC_SERVICE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "cq/conjunctive_query.h"
#include "data/value.h"
#include "guard/classes.h"
#include "obs/context.h"
#include "obs/metrics.h"
#include "svc/proto.h"
#include "svc/registry.h"
#include "views/view_set.h"

// The vqdr-serve request engine (transport-free): admission control,
// dispatch, and graceful degradation, shared by the socket server and the
// in-process tests. One Service per process; it owns the per-tenant
// budget-class table and the watchdog hookup, and it turns on the
// process-wide memo switch so every request shares the warm store. An
// admitted request's handler runs on the thread that called Handle (a
// connection thread under the socket server), so queue_limit bounds the
// requests running at once.
//
// Robustness contract (DESIGN.md §13):
//  * Admission is explicit: a request past the tenant's concurrency slots or
//    the global queue limit gets a structured "overloaded" rejection with a
//    retry_after_ms hint of 25 ms (the same for "draining") — never a
//    silent drop, never unbounded queueing.
//  * An ill-formed request is a "bad_request", never a process abort: the
//    request's queries are checked for what the engines assume (safety, one
//    arity per relation, distinct view names, containment operands of equal
//    head arity without negation) before any engine runs.
//  * The request budget is built AT ADMISSION (deadline armed immediately),
//    so everything after the gate counts against the client's deadline.
//  * A tripped budget degrades, it does not fail: the response stays ok with
//    the guard::Outcome tag and the exact computed prefix.
//  * Captured handler exceptions (including injected faults) become
//    ok=false/"internal" responses with outcome INTERNAL_ERROR — the calling
//    thread and the connection both survive.
//  * A wedged request is detected by the obs stall watchdog through its
//    per-request op identity; the service's stall hook cancels that
//    request's budget through obs::CancelOp, so the handler stops at its
//    next checkpoint, the response reports CANCELLED, and the admission slot
//    is freed. Exactly one structured report per stall (native watchdog
//    discipline).

namespace vqdr {
struct UnrestrictedDeterminacyResult;
struct ContainmentResult;
struct ChaseChain;
namespace memo {
class SnapshotFlusher;
}  // namespace memo
}  // namespace vqdr

namespace vqdr::svc {

struct ServiceOptions {
  /// Global cap on requests admitted and not yet finished, i.e. running at
  /// once. Beyond it: "overloaded".
  std::size_t queue_limit = 64;

  /// Memo snapshot file backing warm restarts (DESIGN.md §14). "" falls back
  /// to the VQDR_MEMO_SNAPSHOT environment variable; both empty = no
  /// persistence. When set, the snapshot is loaded at construction and
  /// written by the background flusher, at drain, and by the "snapshot"
  /// control op.
  std::string memo_snapshot_path;

  /// Background snapshot flush interval in milliseconds. 0 = no background
  /// thread — the snapshot is still written at drain and on the "snapshot"
  /// control op.
  std::uint64_t memo_flush_ms = 0;
};

/// Counters the tests and the "stats" operation read.
struct ServiceStats {
  std::uint64_t accepted = 0;
  std::uint64_t completed = 0;
  std::uint64_t rejected_overloaded = 0;
  std::uint64_t rejected_draining = 0;
  std::uint64_t internal_errors = 0;
  std::uint64_t watchdog_cancels = 0;
  std::uint64_t bad_requests = 0;
};

class Service {
 public:
  /// Turns the process memo switch on: engines install only kComplete
  /// outcomes and replay hits byte-identically, so served results stay
  /// exact. Installs the stall hook (the watchdog itself starts via
  /// VQDR_WATCHDOG_MS or obs::StartWatchdog).
  explicit Service(ServiceOptions options = {});
  ~Service();

  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  /// Per-tenant budget classes; define them before serving traffic.
  guard::BudgetClassTable& classes() { return classes_; }

  /// Full request path: parse, admit, dispatch, serialize. Never throws;
  /// malformed frames come back as "bad_request" responses. Thread-safe —
  /// this is the connection-thread entry point.
  std::string HandleLine(std::string_view line);

  /// Same, from a parsed request (test seam).
  Response Handle(const Request& req);

  /// Stops admitting engine work ("draining" rejections; control operations
  /// still served) — the SIGTERM drain-then-exit path.
  void BeginDrain() { draining_.store(true, std::memory_order_release); }
  bool draining() const { return draining_.load(std::memory_order_acquire); }

  /// Admitted-not-finished requests.
  std::size_t in_flight() const {
    return in_flight_.load(std::memory_order_acquire);
  }

  ServiceStats stats() const;

  const ServiceOptions& options() const { return options_; }

  /// Writes the memo snapshot now (the "snapshot" control op and the test
  /// seam). On success *result_json gets {"path":...,"entries":N,...};
  /// fails when no snapshot path is configured or the write itself fails.
  Status FlushMemoSnapshot(std::string* result_json);

  /// The resolved snapshot path ("" = persistence off).
  const std::string& memo_snapshot_path() const {
    return memo_snapshot_path_;
  }

 private:
  void RegisterBuiltinOps();
  Response Reject(const char* code, const Request& req);

  ServiceOptions options_;
  OpRegistry registry_;
  guard::BudgetClassTable classes_;

  // Warm-restart persistence: null when no snapshot path is configured. The
  // flusher is reset in the destructor, after every Handle call returned,
  // which is the flush-on-SIGTERM-drain final write.
  std::string memo_snapshot_path_;
  std::unique_ptr<memo::SnapshotFlusher> memo_flusher_;

  std::atomic<bool> draining_{false};
  std::atomic<std::size_t> in_flight_{0};
  std::atomic<std::uint64_t> next_request_{0};

  mutable std::mutex stats_mu_;
  ServiceStats stats_;

  // Baseline for the /metrics delta (captured at construction).
  obs::MetricsSnapshot metrics_baseline_;
};

/// A request's parsed engine inputs. Parsing order is fixed — views in
/// request order, then the query (then q1 before q2) — so an independent
/// direct engine call on the same strings replays byte-identically.
struct Scenario {
  NamePool pool;
  Schema schema;
  ViewSet views;
  std::optional<ConjunctiveQuery> query;
};

/// Builds the scenario of a determinacy/chase-style request: `schema` as
/// "Name/arity ..." ("" = the query body schema), `views` as pure-CQ rules
/// with distinct names, `query` as a pure-CQ rule. Every view and the query
/// must be safe, and each relation must have one arity across them and the
/// declared schema; a violation is an InvalidArgument status.
Status BuildScenario(const std::string& schema,
                     const std::vector<std::string>& views,
                     const std::string& query, Scenario* out);

// Result-object builders, shared between the handlers and the byte-identity
// tests: both sides serialize an engine result through the same function, so
// "served == direct" is an exact string comparison.
std::string DeterminacyResultJson(
    const vqdr::UnrestrictedDeterminacyResult& result, const NamePool& pool);
std::string ContainmentResultJson(const vqdr::ContainmentResult& result);
std::string ChaseResultJson(const vqdr::ChaseChain& chain,
                            const NamePool& pool);

}  // namespace vqdr::svc

#endif  // VQDR_SVC_SERVICE_H_
