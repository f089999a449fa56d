// Service soak (the tsan battery): thousands of mixed concurrent requests
// through one Service — every response must be structurally valid, every
// complete result byte-identical to a direct engine call through the same
// shared builders, and the run must terminate (zero hangs) with consistent
// admission accounting. A second scenario drives the service far past its
// queue limit and asserts overload never produces anything but a complete
// answer or a structured "overloaded" rejection.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "chase/chain.h"
#include "memo/memo.h"

#include "memo/snapshot.h"
#include "memo/store.h"
#include "core/determinacy.h"
#include "cq/containment.h"
#include "cq/parser.h"
#include "guard/budget.h"
#include "guard/outcome.h"
#include "svc/proto.h"
#include "svc/service.h"

namespace vqdr::svc {
namespace {

struct SoakCase {
  const char* line;
  std::string expected_result;  // byte-identity reference, built directly
};

Request MustParse(const std::string& line) {
  StatusOr<Request> req = ParseRequest(line);
  EXPECT_TRUE(req.ok()) << req.status().message();
  return std::move(req).value();
}

std::string DirectDeterminacy(const std::string& schema,
                              const std::vector<std::string>& views,
                              const std::string& query) {
  Scenario sc;
  EXPECT_TRUE(BuildScenario(schema, views, query, &sc).ok());
  guard::Budget budget;
  UnrestrictedDeterminacyResult r =
      DecideUnrestrictedDeterminacy(sc.views, *sc.query, &budget);
  return DeterminacyResultJson(r, sc.pool);
}

std::string DirectContainment(const std::string& q1_text,
                              const std::string& q2_text) {
  NamePool pool;
  auto q1 = ParseCq(q1_text, pool);
  auto q2 = ParseCq(q2_text, pool);
  EXPECT_TRUE(q1.ok() && q2.ok());
  CqContainmentOptions options;
  guard::Budget budget;
  options.budget = &budget;
  return ContainmentResultJson(
      CqContainedInGoverned(q1.value(), q2.value(), options));
}

std::string DirectChase(const std::string& schema,
                        const std::vector<std::string>& views,
                        const std::string& query, int levels) {
  Scenario sc;
  EXPECT_TRUE(BuildScenario(schema, views, query, &sc).ok());
  ChaseChainOptions options;
  options.levels = levels;
  guard::Budget budget;
  options.budget = &budget;
  ValueFactory factory(sc.pool.MaxId());
  ChaseChain chain = BuildChaseChain(sc.views, *sc.query, options, factory);
  return ChaseResultJson(chain, sc.pool);
}

std::string DirectParseCanonical(const std::string& text) {
  NamePool pool;
  auto q = ParseCq(text, pool);
  EXPECT_TRUE(q.ok());
  std::string result = "{\"canonical\":";
  AppendJson(CqToString(q.value(), pool), &result);
  result.push_back('}');
  return result;
}

std::vector<SoakCase> BuildMixedCases() {
  std::vector<SoakCase> cases;
  cases.push_back(
      {"{\"op\":\"determinacy\",\"schema\":\"R/2\","
       "\"views\":[\"V(x,y) :- R(x,y)\"],\"query\":\"Q(x) :- R(x,y)\"}",
       DirectDeterminacy("R/2", {"V(x,y) :- R(x,y)"}, "Q(x) :- R(x,y)")});
  cases.push_back(
      {"{\"op\":\"determinacy\",\"schema\":\"R/2\","
       "\"views\":[\"V(x) :- R(x,y)\"],\"query\":\"Q(x,y) :- R(x,y)\"}",
       DirectDeterminacy("R/2", {"V(x) :- R(x,y)"}, "Q(x,y) :- R(x,y)")});
  cases.push_back(
      {"{\"op\":\"containment\",\"q1\":\"Q(x) :- R(x,x)\","
       "\"q2\":\"Q(x) :- R(x,y)\"}",
       DirectContainment("Q(x) :- R(x,x)", "Q(x) :- R(x,y)")});
  cases.push_back(
      {"{\"op\":\"containment\",\"q1\":\"Q(x) :- R(x,y)\","
       "\"q2\":\"Q(x) :- R(x,x)\"}",
       DirectContainment("Q(x) :- R(x,y)", "Q(x) :- R(x,x)")});
  cases.push_back(
      {"{\"op\":\"chase\",\"levels\":2,\"schema\":\"R/2 S/2\","
       "\"views\":[\"V1(x,y) :- R(x,y)\",\"V2(x,y) :- S(x,y)\"],"
       "\"query\":\"Q(x,z) :- R(x,y), S(y,z)\"}",
       DirectChase("R/2 S/2", {"V1(x,y) :- R(x,y)", "V2(x,y) :- S(x,y)"},
                   "Q(x,z) :- R(x,y), S(y,z)", 2)});
  cases.push_back(
      {"{\"op\":\"parse\",\"kind\":\"cq\","
       "\"text\":\"Q(x) :- R(x,y), R(y,z), R(z,x)\"}",
       DirectParseCanonical("Q(x) :- R(x,y), R(y,z), R(z,x)")});
  return cases;
}

TEST(SvcSoak, MixedConcurrentRequestsByteIdenticalAndHangFree) {
  constexpr int kClientThreads = 8;
  constexpr int kRequestsPerThread = 256;  // 2048 total

  ServiceOptions options;
  options.queue_limit = 64;  // above peak concurrency: no rejects expected
  Service service(options);

  const std::vector<SoakCase> cases = BuildMixedCases();
  std::vector<Request> parsed;
  parsed.reserve(cases.size());
  for (const SoakCase& c : cases) parsed.push_back(MustParse(c.line));

  std::atomic<int> mismatches{0};
  std::atomic<int> not_ok{0};
  std::atomic<int> incomplete{0};
  std::vector<std::thread> clients;
  clients.reserve(kClientThreads);
  for (int t = 0; t < kClientThreads; ++t) {
    clients.emplace_back([&, t] {
      for (int i = 0; i < kRequestsPerThread; ++i) {
        const std::size_t which = (t + i) % cases.size();
        Response r = service.Handle(parsed[which]);
        if (!r.ok) {
          not_ok.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        if (!r.has_outcome || r.outcome != guard::Outcome::kComplete) {
          incomplete.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        if (r.result_json != cases[which].expected_result) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& c : clients) c.join();

  EXPECT_EQ(not_ok.load(), 0);
  EXPECT_EQ(incomplete.load(), 0);
  EXPECT_EQ(mismatches.load(), 0) << "served result_json diverged from the "
                                     "direct engine call";

  const ServiceStats stats = service.stats();
  const std::uint64_t total =
      static_cast<std::uint64_t>(kClientThreads) * kRequestsPerThread;
  EXPECT_EQ(stats.accepted, total);
  EXPECT_EQ(stats.completed, total);
  EXPECT_EQ(stats.rejected_overloaded, 0u);
  EXPECT_EQ(stats.internal_errors, 0u);
  EXPECT_EQ(service.in_flight(), 0u);
}

// The snapshot-flusher soak (tsan): mixed concurrent traffic while the
// background flusher serializes the shared store every millisecond, plus
// concurrent "snapshot" control ops. Every flushed image a prober loads
// must be structurally valid, and byte-identity must hold throughout.
TEST(SvcSoak, BackgroundSnapshotFlushUnderLoadStaysConsistent) {
  constexpr int kClientThreads = 6;
  constexpr int kRequestsPerThread = 128;

  const std::string path =
      ::testing::TempDir() + "vqdr_svc_soak_flush.bin";
  std::remove(path.c_str());
  memo::GlobalStore().Clear();

  ServiceOptions options;
  options.queue_limit = 64;
  options.memo_snapshot_path = path;
  options.memo_flush_ms = 1;

  std::atomic<int> mismatches{0};
  std::atomic<int> corrupt_images{0};
  {
    Service service(options);
    const std::vector<SoakCase> cases = BuildMixedCases();
    std::vector<Request> parsed;
    parsed.reserve(cases.size());
    for (const SoakCase& c : cases) parsed.push_back(MustParse(c.line));
    Request snapshot_op = MustParse("{\"op\":\"snapshot\"}");

    std::vector<std::thread> clients;
    clients.reserve(kClientThreads);
    for (int t = 0; t < kClientThreads; ++t) {
      clients.emplace_back([&, t] {
        for (int i = 0; i < kRequestsPerThread; ++i) {
          // Every 32nd request of one thread is an explicit snapshot op,
          // racing the periodic flusher on purpose.
          if (t == 0 && i % 32 == 31) {
            Response s = service.Handle(snapshot_op);
            if (!s.ok) mismatches.fetch_add(1, std::memory_order_relaxed);
            continue;
          }
          const std::size_t which = (t + i) % cases.size();
          Response r = service.Handle(parsed[which]);
          if (!r.ok || !r.has_outcome ||
              r.outcome != guard::Outcome::kComplete ||
              r.result_json != cases[which].expected_result) {
            mismatches.fetch_add(1, std::memory_order_relaxed);
          }
        }
      });
    }
    // Prober: every image the flusher lands must load cleanly.
    std::atomic<bool> stop{false};
    std::thread prober([&] {
      while (!stop.load(std::memory_order_acquire)) {
        memo::Store probe(8192);
        memo::SnapshotIoStats stats = memo::LoadSnapshot(probe, path);
        if (stats.corrupt) {
          corrupt_images.fetch_add(1, std::memory_order_relaxed);
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
    });
    for (std::thread& c : clients) c.join();
    stop.store(true, std::memory_order_release);
    prober.join();
  }  // Service destructor: drain + final flush

  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(corrupt_images.load(), 0);
  // The final image restores into a fresh store without damage.
  memo::Store fresh(8192);
  memo::SnapshotIoStats final_stats = memo::LoadSnapshot(fresh, path);
  EXPECT_FALSE(final_stats.corrupt) << final_stats.error;
  EXPECT_GE(final_stats.entries, 1u);
  std::remove(path.c_str());
}

TEST(SvcSoak, OverloadNeverDropsOrFabricates) {
  ServiceOptions options;
  options.queue_limit = 2;  // far below offered concurrency
  Service service(options);

  const std::string expected =
      DirectDeterminacy("R/2", {"V(x,y) :- R(x,y)"}, "Q(x) :- R(x,y)");
  const Request req = MustParse(
      "{\"op\":\"determinacy\",\"schema\":\"R/2\","
      "\"views\":[\"V(x,y) :- R(x,y)\"],\"query\":\"Q(x) :- R(x,y)\"}");

  constexpr int kClientThreads = 8;
  constexpr int kRequestsPerThread = 64;
  std::atomic<int> completed{0};
  std::atomic<int> overloaded{0};
  std::atomic<int> anomalies{0};
  std::vector<std::thread> clients;
  clients.reserve(kClientThreads);
  for (int t = 0; t < kClientThreads; ++t) {
    clients.emplace_back([&] {
      for (int i = 0; i < kRequestsPerThread; ++i) {
        Response r = service.Handle(req);
        if (r.ok && r.has_outcome &&
            r.outcome == guard::Outcome::kComplete &&
            r.result_json == expected) {
          completed.fetch_add(1, std::memory_order_relaxed);
        } else if (!r.ok && r.code == "overloaded" && r.has_retry) {
          overloaded.fetch_add(1, std::memory_order_relaxed);
        } else {
          anomalies.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& c : clients) c.join();

  constexpr int kTotal = kClientThreads * kRequestsPerThread;
  EXPECT_EQ(anomalies.load(), 0)
      << "a response was neither complete-and-exact nor a structured "
         "overloaded rejection";
  EXPECT_EQ(completed.load() + overloaded.load(), kTotal);
  EXPECT_GT(completed.load(), 0);  // the service made progress throughout

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.accepted, static_cast<std::uint64_t>(completed.load()));
  EXPECT_EQ(stats.completed, stats.accepted);
  EXPECT_EQ(stats.rejected_overloaded,
            static_cast<std::uint64_t>(overloaded.load()));
  EXPECT_EQ(service.in_flight(), 0u);
}

}  // namespace
}  // namespace vqdr::svc
