// Concurrency battery for the observability surfaces (run under
// ThreadSanitizer by the CI tsan job via the PAR label): drains the trace
// ring, snapshots metrics, and exports Prometheus text WHILE the parallel
// engines hammer the same structures from worker threads, at thread counts
// 2 and 8. The assertions are deliberately weak — the verdicts must stay
// correct and the drained events well-formed — because the point is the
// data-race-freedom tsan checks, not the values.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/finite_search.h"
#include "cq/containment.h"
#include "cq/parser.h"
#include "obs/context.h"
#include "obs/explain.h"
#include "obs/export.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "obs/registry.h"
#include "obs/trace.h"

namespace vqdr {
namespace {

class ObsStressFixture : public ::testing::TestWithParam<int> {
 protected:
  ConjunctiveQuery Cq(const std::string& text) {
    auto q = ParseCq(text, pool_);
    EXPECT_TRUE(q.ok()) << q.status().message();
    return q.value();
  }

  ViewSet CqViews(const std::vector<std::string>& defs) {
    ViewSet views;
    for (const std::string& def : defs) {
      ConjunctiveQuery q = Cq(def);
      views.Add(q.head_name(), Query::FromCq(q));
    }
    return views;
  }

  NamePool pool_;
};

TEST_P(ObsStressFixture, DrainingTracesWhileParallelSearchRuns) {
  const int threads = GetParam();
  obs::EnableTracing();
  obs::DrainTraceEvents();

  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> drained{0};
  std::thread reader([&] {
    // Continuously drain the ring and fold whatever lands into a profile;
    // under tsan this races against every worker's span completion unless
    // the ring is properly synchronized.
    while (!done.load(std::memory_order_acquire)) {
      std::vector<obs::TraceEvent> events = obs::DrainTraceEvents();
      drained.fetch_add(events.size(), std::memory_order_relaxed);
      obs::Profile profile = obs::BuildProfile(events);
      ASSERT_EQ(profile.span_count, events.size());
      std::this_thread::yield();
    }
    drained.fetch_add(obs::DrainTraceEvents().size(),
                      std::memory_order_relaxed);
  });

  // Projection views lose the edge target, so a refuting pair exists at
  // domain size 2 (same test case FiniteSearchRefutesNonDeterminedCase pins).
  ViewSet views = CqViews({"V(x) :- E(x, y)"});
  ConjunctiveQuery q = Cq("Q(x, y) :- E(x, y)");
  EnumerationOptions options;
  options.domain_size = 2;
  options.threads = threads;
  DeterminacySearchResult result = SearchDeterminacyCounterexample(
      views, Query::FromCq(q), Schema{{"E", 2}}, options);

  done.store(true, std::memory_order_release);
  reader.join();
  obs::DisableTracing();
  obs::DrainTraceEvents();

  // The verdict must be untouched by the concurrent drains.
  EXPECT_EQ(result.verdict, SearchVerdict::kCounterexampleFound);
}

TEST_P(ObsStressFixture, SnapshottingMetricsWhileParallelSweepRecords) {
  const int threads = GetParam();
  std::atomic<bool> done{false};
  std::thread reader([&] {
    obs::MetricsSnapshot base = obs::SnapshotMetrics();
    while (!done.load(std::memory_order_acquire)) {
      obs::MetricsSnapshot delta = obs::SnapshotDelta(base);
      std::string text = obs::ExportPrometheusText(delta);
      // Histogram invariant under concurrent Record(): the windowed bucket
      // sum never exceeds the windowed count... but relaxed per-bucket
      // increments can lag the count load, so only sanity-check the shape.
      for (const auto& [name, hs] : delta.histograms) {
        std::uint64_t bucket_sum = 0;
        for (std::uint64_t b : hs.buckets) bucket_sum += b;
        EXPECT_LE(hs.min, hs.max) << name;
        (void)bucket_sum;
      }
      std::this_thread::yield();
    }
  });

  ConjunctiveQuery left = Cq("Q(x, y) :- E(x, y), x != y");
  ConjunctiveQuery right = Cq("Q(x, y) :- E(x, y)");
  CqContainmentOptions options;
  options.threads = threads;
  for (int i = 0; i < 3; ++i) {
    VQDR_HISTOGRAM_RECORD("test.stress.hist", 1u << (i % 20));
    EXPECT_TRUE(CqContainedIn(left, right, options));
  }

  done.store(true, std::memory_order_release);
  reader.join();
}

TEST_P(ObsStressFixture, SharedExplainLogSurvivesParallelSweep) {
  const int threads = GetParam();
  // One ExplainLog shared by every worker of the pattern sweep: appends must
  // be internally synchronized, and every recorded witness must replay.
  ConjunctiveQuery left = Cq("Q(x, y, z) :- E(x, y), E(y, z), x != z");
  ConjunctiveQuery right = Cq("Q(x, y, z) :- E(x, y), E(y, z)");

  obs::ExplainLog log;
  CqContainmentOptions options;
  options.threads = threads;
  options.explain = &log;
  EXPECT_TRUE(CqContainedIn(left, right, options));

  int witnesses = 0;
  for (const obs::ExplainEvent& e : log.events()) {
    if (e.kind != obs::ExplainKind::kWitness) continue;
    ++witnesses;
    std::string error;
    EXPECT_TRUE(e.witness.has_value() && e.witness->Verify(&error)) << error;
  }
  EXPECT_GE(witnesses, 1);
}

// Live-telemetry battery (DESIGN.md §11): GetParam() client threads each
// open their own OpScope and run a full engine call while a snapshotter
// thread hammers every registry read surface. Unlike the weak assertions
// above, the attribution checks here are EXACT: a serial client's per-op
// "search.instances" delta must equal its own result's instances_examined —
// any cross-op pollution under concurrency breaks the equality.
TEST_P(ObsStressFixture, RegistryAttributesCountersToTheRightOpConcurrently) {
  const int threads = GetParam();

  std::atomic<bool> done{false};
  std::thread snapshotter([&] {
    while (!done.load(std::memory_order_acquire)) {
      std::vector<obs::OpSnapshot> ops = obs::SnapshotOps();
      std::string json = obs::OpsToJson(ops, 1754650000000ull);
      ASSERT_EQ(json.find("{\"event\":\"ops\""), 0u);
      std::string text = obs::RenderOpsText(ops);
      ASSERT_FALSE(text.empty());
      (void)obs::SnapshotThreadStacks();
      std::this_thread::yield();
    }
  });

  struct ClientResult {
    obs::OpId id = 0;
    bool parallel = false;
    std::uint64_t examined = 0;
    std::uint64_t counter = 0;
    std::uint64_t tasks = 0;
    bool phase_seen = false;
    SearchVerdict verdict = SearchVerdict::kNoneWithinBound;
  };
  std::vector<ClientResult> clients(static_cast<std::size_t>(threads));

  // Each client re-parses its own inputs: NamePool is not shared across
  // threads.
  auto client = [&](std::size_t i) {
    NamePool pool;
    auto v = ParseCq("V(x) :- E(x, y)", pool);
    ASSERT_TRUE(v.ok());
    ViewSet views;
    views.Add(v.value().head_name(), Query::FromCq(v.value()));
    auto q = ParseCq("Q(x, y) :- E(x, y)", pool);
    ASSERT_TRUE(q.ok());

    obs::OpScope op(obs::OpKind::kOther, "stress.client");
    clients[i].id = op.id();
    {
      // Span bookkeeping must land on THIS op even while every other client
      // pushes spans of its own.
      VQDR_TRACE_SPAN("stress.client.phase");
      clients[i].phase_seen =
          obs::SnapshotOp(op.id()).phase == std::string("stress.client.phase");
    }
    EnumerationOptions options;
    options.domain_size = 2;
    // Even clients sweep serially (exact attribution identity); odd clients
    // shard across their own pool (exercises task-boundary propagation).
    clients[i].parallel = (i % 2) == 1;
    options.threads = clients[i].parallel ? threads : 1;
    DeterminacySearchResult result = SearchDeterminacyCounterexample(
        views, Query::FromCq(q.value()), Schema{{"E", 2}}, options);
    clients[i].verdict = result.verdict;
    clients[i].examined = result.instances_examined;

    obs::OpSnapshot snap = obs::SnapshotOp(op.id());
    auto it = snap.counters.find("search.instances");
    clients[i].counter = it == snap.counters.end() ? 0 : it->second;
    clients[i].tasks = snap.tasks;
  };

  std::vector<std::thread> workers;
  for (std::size_t i = 0; i < clients.size(); ++i) {
    workers.emplace_back(client, i);
  }
  for (std::thread& w : workers) w.join();
  done.store(true, std::memory_order_release);
  snapshotter.join();

  for (std::size_t i = 0; i < clients.size(); ++i) {
    const ClientResult& c = clients[i];
    ASSERT_NE(c.id, 0u) << "client " << i;
    EXPECT_EQ(c.verdict, SearchVerdict::kCounterexampleFound) << "client " << i;
    EXPECT_TRUE(c.phase_seen) << "client " << i;
    ASSERT_GT(c.examined, 0u) << "client " << i;
    if (c.parallel) {
      // Workers may race past the earliest conflict, so the per-op tally can
      // only exceed the deterministic prefix — but it must still be this
      // op's own work, and the pool tasks must have bound to it.
      EXPECT_GE(c.counter, c.examined) << "client " << i;
      EXPECT_GT(c.tasks, 0u) << "client " << i;
    } else {
      EXPECT_EQ(c.counter, c.examined) << "client " << i;
    }
    for (std::size_t j = i + 1; j < clients.size(); ++j) {
      EXPECT_NE(c.id, clients[j].id);
    }
  }
}

// Every log record must carry the op id of the thread that emitted it, even
// when GetParam() clients log through the shared sink at once.
TEST_P(ObsStressFixture, LoggerStampsRecordsWithTheEmittingOp) {
  const int threads = GetParam();
  constexpr int kRecordsPerClient = 50;

  std::mutex mu;
  std::vector<std::string> lines;
  obs::SetLogCapture([&](const std::string& line) {
    std::lock_guard<std::mutex> lock(mu);
    lines.push_back(line);
  });
  obs::SetLogLevel(obs::LogLevel::kInfo);
  obs::SetLogRateLimit(0);  // unlimited: shedding would break the tally

  std::vector<obs::OpId> ids(static_cast<std::size_t>(threads), 0);
  std::vector<std::thread> workers;
  for (int i = 0; i < threads; ++i) {
    workers.emplace_back([&, i] {
      obs::OpScope op(obs::OpKind::kOther, "stress.logger");
      ids[static_cast<std::size_t>(i)] = op.id();
      for (int n = 0; n < kRecordsPerClient; ++n) {
        obs::LogRecord(obs::LogLevel::kInfo, "stress.log")
            .Num("client", i)
            .Num("n", n);
      }
    });
  }
  for (std::thread& w : workers) w.join();

  obs::SetLogLevel(obs::LogLevel::kOff);
  obs::SetLogCapture(nullptr);
  obs::SetLogRateLimit(1000);

  // Drop the built-in op.done lifecycle records the closing scopes emit;
  // the tally below is for this test's own records only.
  std::erase_if(lines, [](const std::string& l) {
    return l.find("\"event\":\"stress.log\"") == std::string::npos;
  });
  ASSERT_EQ(lines.size(),
            static_cast<std::size_t>(threads) * kRecordsPerClient);
  auto field = [](const std::string& line, const std::string& key) {
    std::size_t at = line.find("\"" + key + "\":");
    EXPECT_NE(at, std::string::npos) << line;
    return std::stoull(line.substr(at + key.size() + 3));
  };
  for (const std::string& line : lines) {
    std::uint64_t client = field(line, "client");
    ASSERT_LT(client, ids.size()) << line;
    EXPECT_EQ(field(line, "op"), ids[client]) << line;
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, ObsStressFixture, ::testing::Values(2, 8),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return "t" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace vqdr
