// Live-telemetry battery (DESIGN.md §11): per-operation context propagation,
// the in-flight op registry, exact per-op counter attribution, and the
// structured logger. Serial scenarios here; the threaded registry/logger
// battery lives in obs_stress_test.cc, and the stall watchdog scenarios in
// watchdog_test.cc.

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "base/env.h"
#include "core/finite_search.h"
#include "cq/containment.h"
#include "cq/parser.h"
#include "guard/budget.h"
#include "obs/context.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/registry.h"
#include "obs/trace.h"

namespace vqdr {
namespace {

ConjunctiveQuery Cq(const std::string& text, NamePool& pool) {
  auto q = ParseCq(text, pool);
  EXPECT_TRUE(q.ok()) << q.status().message();
  return q.value();
}

TEST(OpContext, ScopeBindsAndUnbindsTheThread) {
  EXPECT_EQ(obs::CurrentOpId(), 0u);
  obs::OpId seen = 0;
  {
    obs::OpScope op(obs::OpKind::kOther, "test.scope");
    seen = op.id();
    EXPECT_NE(seen, 0u);
    EXPECT_EQ(obs::CurrentOpId(), seen);
  }
  EXPECT_EQ(obs::CurrentOpId(), 0u);
  // The op is gone from the live table once the scope closes.
  EXPECT_EQ(obs::SnapshotOp(seen).id, 0u);
}

TEST(OpContext, NestedScopeIsAPassthrough) {
  obs::OpScope outer(obs::OpKind::kAnalyze, "test.outer");
  ASSERT_NE(outer.id(), 0u);
  {
    obs::OpScope inner(obs::OpKind::kSearch, "test.inner");
    // Nested engine calls do not open a second operation: attribution stays
    // with the op the caller sees.
    EXPECT_EQ(inner.id(), 0u);
    EXPECT_EQ(obs::CurrentOpId(), outer.id());
  }
  EXPECT_EQ(obs::CurrentOpId(), outer.id());
}

TEST(OpContext, OpIdsAreUniqueAndMonotone) {
  obs::OpId first = 0;
  {
    obs::OpScope a(obs::OpKind::kOther, "test.first");
    first = a.id();
  }
  obs::OpScope b(obs::OpKind::kOther, "test.second");
  EXPECT_GT(b.id(), first);
}

TEST(OpRegistry, SnapshotShowsKindLabelAndPhase) {
  obs::OpScope op(obs::OpKind::kContainment, "test.snapshot");
  obs::OpSnapshot snap = obs::SnapshotOp(op.id());
  EXPECT_EQ(snap.id, op.id());
  EXPECT_EQ(snap.kind, obs::OpKind::kContainment);
  EXPECT_EQ(snap.label, "test.snapshot");
  // Before any span, the phase is the op label itself.
  EXPECT_EQ(snap.phase, "test.snapshot");
  {
    VQDR_TRACE_SPAN("test.snapshot.phase");
    EXPECT_EQ(obs::SnapshotOp(op.id()).phase, "test.snapshot.phase");
  }
  // Span closed: phase falls back to the op label.
  EXPECT_EQ(obs::SnapshotOp(op.id()).phase, "test.snapshot");
}

TEST(OpRegistry, ThreadStacksTrackLiveSpans) {
  obs::OpScope op(obs::OpKind::kOther, "test.stacks");
  VQDR_TRACE_SPAN("test.stacks.outer");
  VQDR_TRACE_SPAN("test.stacks.inner");
  bool found = false;
  for (const obs::ThreadStackSnapshot& t : obs::SnapshotThreadStacks()) {
    if (t.op_id != op.id()) continue;
    found = true;
    ASSERT_GE(t.spans.size(), 2u);
    EXPECT_EQ(t.spans[t.spans.size() - 2], "test.stacks.outer");
    EXPECT_EQ(t.spans.back(), "test.stacks.inner");
  }
  EXPECT_TRUE(found);
}

TEST(OpRegistry, ExitedThreadsLeaveTheThreadStacks) {
  // A server that starts a thread per connection must not grow the list —
  // and every stall report — by one entry per thread it ever started.
  auto op_on_a_new_thread = [] {
    std::thread t([] { obs::OpScope op(obs::OpKind::kOther, "test.exited"); });
    t.join();
  };
  op_on_a_new_thread();
  std::size_t before = obs::SnapshotThreadStacks().size();
  for (int i = 0; i < 50; ++i) op_on_a_new_thread();
  EXPECT_LE(obs::SnapshotThreadStacks().size(), before);
}

TEST(OpRegistry, CounterDeltasAttributeToTheBoundOp) {
  obs::OpScope op(obs::OpKind::kOther, "test.attribution");
  VQDR_COUNTER_ADD("test.attr.counter", 7);
  VQDR_COUNTER_INC("test.attr.counter");
  obs::OpSnapshot snap = obs::SnapshotOp(op.id());
  auto it = snap.counters.find("test.attr.counter");
  ASSERT_NE(it, snap.counters.end());
  EXPECT_EQ(it->second, 8u);
}

TEST(OpRegistry, CounterMovementOutsideAnyOpIsNotAttributed) {
  // Move the counter with no op bound...
  VQDR_COUNTER_ADD("test.attr.unbound", 5);
  // ...then open an op: its cells must start clean.
  obs::OpScope op(obs::OpKind::kOther, "test.unbound");
  obs::OpSnapshot snap = obs::SnapshotOp(op.id());
  EXPECT_EQ(snap.counters.count("test.attr.unbound"), 0u);
}

TEST(OpRegistry, BudgetStateIsVisibleWhileInFlight) {
  guard::Budget budget(guard::BudgetSpec{.max_steps = 1000});
  obs::OpScope op(obs::OpKind::kSearch, "test.budget", &budget);
  budget.Checkpoint(12);
  obs::OpSnapshot snap = obs::SnapshotOp(op.id());
  ASSERT_TRUE(snap.budget.present);
  EXPECT_EQ(snap.budget.steps, 12u);
  EXPECT_EQ(snap.budget.max_steps, 1000u);
  EXPECT_FALSE(snap.budget.stopped);
  // Checkpoints heartbeat the op through the guard observer seam.
  EXPECT_GE(snap.heartbeats, 12u);
}

TEST(OpRegistry, CancelOpCancelsOnlyALiveGovernedOp) {
  guard::Budget budget;
  obs::OpId ended = 0;
  {
    obs::OpScope op(obs::OpKind::kService, "test.cancel", &budget);
    ended = op.id();
    ASSERT_NE(ended, 0u);
    EXPECT_TRUE(obs::CancelOp(op.id()));
    EXPECT_EQ(budget.stop_reason(), guard::Outcome::kCancelled);
  }
  // The scope detached the budget: an ended op is no longer cancellable.
  EXPECT_FALSE(obs::CancelOp(ended));
  EXPECT_FALSE(obs::CancelOp(ended + 1000000));  // no such op

  obs::OpScope ungoverned(obs::OpKind::kService, "test.cancel.ungoverned");
  EXPECT_FALSE(obs::CancelOp(ungoverned.id()));
}

TEST(OpRegistry, CompletedOpsAreKeptWhenAsked) {
  obs::SetKeepCompletedOps(4);
  obs::OpId id = 0;
  {
    obs::OpScope op(obs::OpKind::kChase, "test.completed");
    id = op.id();
    VQDR_COUNTER_INC("test.completed.counter");
  }
  std::vector<obs::OpSnapshot> done = obs::RecentCompletedOps();
  ASSERT_FALSE(done.empty());
  EXPECT_EQ(done.front().id, id);
  EXPECT_TRUE(done.front().done);
  EXPECT_EQ(done.front().counters.at("test.completed.counter"), 1u);
  obs::SetKeepCompletedOps(0);
  EXPECT_TRUE(obs::RecentCompletedOps().empty());
}

// A period the dump thread's timed wait cannot represent must be refused:
// 2^64-1 ms (what "-1" reads as through strtoull) turns into -1 ms there,
// and the thread spins, flooding stderr.
TEST(OpRegistry, OpsDumpRefusesUnrepresentablePeriods) {
  EXPECT_FALSE(obs::StartOpsDump(std::numeric_limits<std::uint64_t>::max()));
  EXPECT_FALSE(obs::StartOpsDump(kMaxWaitMs + 1));
  obs::StopOpsDump();
}

TEST(OpRegistry, JsonAndTextRendersCoverTheTable) {
  obs::OpScope op(obs::OpKind::kDecide, "test.render");
  VQDR_COUNTER_INC("test.render.counter");
  std::vector<obs::OpSnapshot> ops = obs::SnapshotOps();
  std::string json = obs::OpsToJson(ops);
  EXPECT_NE(json.find("\"label\":\"test.render\""), std::string::npos);
  EXPECT_NE(json.find("\"kind\":\"decide\""), std::string::npos);
  EXPECT_NE(json.find("\"test.render.counter\":1"), std::string::npos);
  std::string stamped = obs::OpsToJson(ops, 1754650000000ull);
  EXPECT_EQ(stamped.find("{\"event\":\"ops\",\"unix_ms\":1754650000000,"), 0u);
  std::string text = obs::RenderOpsText(ops);
  EXPECT_NE(text.find("test.render"), std::string::npos);
  EXPECT_NE(text.find("[decide]"), std::string::npos);
  EXPECT_EQ(obs::RenderOpsText({}), "ops: none in flight\n");
}

TEST(OpRegistry, TraceEventsCarryTheOpId) {
  obs::EnableTracing();
  obs::DrainTraceEvents();
  obs::OpId id = 0;
  {
    obs::OpScope op(obs::OpKind::kOther, "test.trace.op");
    id = op.id();
    VQDR_TRACE_SPAN("test.trace.span");
  }
  { VQDR_TRACE_SPAN("test.trace.outside"); }
  obs::DisableTracing();
  bool inside = false, outside = false;
  for (const obs::TraceEvent& e : obs::DrainTraceEvents()) {
    if (e.name == "test.trace.span") {
      inside = true;
      EXPECT_EQ(e.op, id);
    }
    if (e.name == "test.trace.outside") {
      outside = true;
      EXPECT_EQ(e.op, 0u);
    }
  }
  EXPECT_TRUE(inside);
  EXPECT_TRUE(outside);
}

// The deterministic end-to-end attribution identity: a serial engine call's
// per-op "search.instances" cell equals the result's own instances_examined
// tally, exactly.
TEST(OpRegistry, SerialSearchAttributesItsExactInstanceCount) {
  NamePool pool;
  ViewSet views;
  ConjunctiveQuery v = Cq("V(x) :- E(x, y)", pool);
  views.Add(v.head_name(), Query::FromCq(v));
  ConjunctiveQuery q = Cq("Q(x, y) :- E(x, y)", pool);

  obs::SetKeepCompletedOps(4);
  EnumerationOptions options;
  options.domain_size = 2;
  options.threads = 1;
  DeterminacySearchResult result = SearchDeterminacyCounterexample(
      views, Query::FromCq(q), Schema{{"E", 2}}, options);

  std::vector<obs::OpSnapshot> done = obs::RecentCompletedOps();
  obs::SetKeepCompletedOps(0);
  ASSERT_FALSE(done.empty());
  const obs::OpSnapshot& op = done.front();
  EXPECT_EQ(op.kind, obs::OpKind::kSearch);
  EXPECT_EQ(op.label, "search.determinacy");
  ASSERT_GT(result.instances_examined, 0u);
  EXPECT_EQ(op.counters.at("search.instances"), result.instances_examined);
}

TEST(ObsLog, RecordsCarryOpIdAndFields) {
  std::mutex mu;
  std::vector<std::string> lines;
  obs::SetLogCapture([&](const std::string& line) {
    std::lock_guard<std::mutex> lock(mu);
    lines.push_back(line);
  });
  obs::SetLogLevel(obs::LogLevel::kInfo);

  obs::OpId id = 0;
  {
    obs::OpScope op(obs::OpKind::kOther, "test.log");
    id = op.id();
    obs::LogRecord(obs::LogLevel::kInfo, "test.event")
        .Str("note", "hello \"quoted\"")
        .Num("count", 42)
        .Bool("flag", true);
    obs::LogRecord(obs::LogLevel::kDebug, "test.below.level");
  }
  obs::LogRecord(obs::LogLevel::kWarn, "test.outside");

  obs::SetLogLevel(obs::LogLevel::kOff);
  obs::SetLogCapture(nullptr);

  // The scope close also emits a built-in op.done lifecycle record — keep
  // only this test's own events (plus assert the lifecycle record showed
  // up and carried the op id).
  std::vector<std::string> done;
  std::erase_if(lines, [&](const std::string& l) {
    if (l.find("\"event\":\"op.done\"") == std::string::npos) return false;
    done.push_back(l);
    return true;
  });
  ASSERT_EQ(done.size(), 1u);
  EXPECT_NE(done[0].find("\"op\":" + std::to_string(id) + ","),
            std::string::npos);
  EXPECT_NE(done[0].find("\"label\":\"test.log\""), std::string::npos);

  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0].find("{\"ts_ms\":"), 0u);
  EXPECT_NE(lines[0].find("\"level\":\"info\""), std::string::npos);
  EXPECT_NE(lines[0].find("\"event\":\"test.event\""), std::string::npos);
  EXPECT_NE(lines[0].find("\"op\":" + std::to_string(id) + ","),
            std::string::npos);
  EXPECT_NE(lines[0].find("\"note\":\"hello \\\"quoted\\\"\""),
            std::string::npos);
  EXPECT_NE(lines[0].find("\"count\":42"), std::string::npos);
  EXPECT_NE(lines[0].find("\"flag\":true"), std::string::npos);
  EXPECT_EQ(lines[0].back(), '}');
  // The record outside any op joins against op 0.
  EXPECT_NE(lines[1].find("\"op\":0"), std::string::npos);
}

TEST(ObsLog, RateLimitShedsAndReportsDrops) {
  std::mutex mu;
  std::vector<std::string> lines;
  obs::SetLogCapture([&](const std::string& line) {
    std::lock_guard<std::mutex> lock(mu);
    lines.push_back(line);
  });
  obs::SetLogLevel(obs::LogLevel::kInfo);
  obs::SetLogRateLimit(1);

  std::uint64_t dropped_before = obs::LogDroppedCount();
  for (int i = 0; i < 50; ++i) {
    obs::LogRecord(obs::LogLevel::kInfo, "test.storm").Num("i", i);
  }

  obs::SetLogRateLimit(0);  // unlimited: the next record must be admitted
  obs::LogRecord(obs::LogLevel::kInfo, "test.after.storm");
  obs::SetLogLevel(obs::LogLevel::kOff);
  obs::SetLogCapture(nullptr);
  obs::SetLogRateLimit(1000);

  // At 1 record/second the 50-record burst is almost entirely shed (the
  // whole storm, when earlier records already filled this second's window);
  // the unlimited after-storm record is always admitted.
  ASSERT_GE(lines.size(), 1u);
  EXPECT_LE(lines.size(), 5u);
  EXPECT_GT(obs::LogDroppedCount(), dropped_before);
  // The first record admitted after the storm reports what was shed.
  EXPECT_NE(lines.back().find("\"dropped\":"), std::string::npos);
}

TEST(ObsLog, DisabledLevelIsFreeAndEmitsNothing) {
  std::mutex mu;
  std::vector<std::string> lines;
  obs::SetLogCapture([&](const std::string& line) {
    std::lock_guard<std::mutex> lock(mu);
    lines.push_back(line);
  });
  obs::SetLogLevel(obs::LogLevel::kOff);
  obs::LogRecord(obs::LogLevel::kError, "test.never").Num("x", 1);
  obs::SetLogCapture(nullptr);
  EXPECT_TRUE(lines.empty());
}

}  // namespace
}  // namespace vqdr
