// Stall-watchdog battery (DESIGN.md §11): a kStall fault injected into
// guard::Budget::Checkpoint freezes an op's heartbeats without changing its
// computation; the watchdog must emit exactly one structured report per
// stall and the governed call's verdict and examined prefix must be
// byte-identical to an unstalled run.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <limits>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "base/env.h"
#include "core/finite_search.h"
#include "cq/parser.h"
#include "guard/budget.h"
#include "guard/fault.h"
#include "obs/context.h"
#include "obs/registry.h"
#include "obs/watchdog.h"

namespace vqdr {
namespace {

// Collects reports from the watchdog thread; install with Install(), always
// paired with Reset() before the test ends.
class ReportTrap {
 public:
  void Install() {
    obs::SetStallCallback([this](const obs::StallReport& r) {
      std::lock_guard<std::mutex> lock(mu_);
      reports_.push_back(r);
    });
  }
  void Reset() { obs::SetStallCallback(nullptr); }
  std::vector<obs::StallReport> Reports() {
    std::lock_guard<std::mutex> lock(mu_);
    return reports_;
  }

 private:
  std::mutex mu_;
  std::vector<obs::StallReport> reports_;
};

class WatchdogTest : public ::testing::Test {
 protected:
  void TearDown() override {
    guard::DisarmFaults();
    obs::StopWatchdog();
    trap_.Reset();
  }
  ReportTrap trap_;
};

TEST_F(WatchdogTest, EmitsExactlyOneReportForOneStall) {
  trap_.Install();
  ASSERT_TRUE(obs::StartWatchdog(/*stall_ms=*/100));
  ASSERT_TRUE(obs::WatchdogRunning());

  // The checkpoint at step 50 sleeps 600ms: six watchdog thresholds deep,
  // but still ONE stall.
  guard::ArmStallFault(/*at_step=*/50, /*sleep_ms=*/600);

  guard::Budget budget(guard::BudgetSpec{.max_steps = 100000});
  obs::OpId id = 0;
  {
    // Close the scope before settling: an op left idle-but-registered past
    // the threshold would legitimately re-trip the (re-armed) trigger.
    obs::OpScope op(obs::OpKind::kSearch, "test.watchdog.loop", &budget);
    id = op.id();
    ASSERT_NE(id, 0u);
    for (int i = 0; i < 200; ++i) {
      ASSERT_EQ(budget.Checkpoint(), guard::Outcome::kComplete);
    }
  }
  EXPECT_TRUE(guard::FaultFired());

  // The stall happened mid-loop; the watchdog saw it live. Give one poll
  // period of slack for a report already in flight, then assert the count
  // is exactly one — not zero, not re-fired.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  std::vector<obs::StallReport> reports = trap_.Reports();
  ASSERT_EQ(reports.size(), 1u);

  const obs::StallReport& r = reports.front();
  EXPECT_EQ(r.op.id, id);
  EXPECT_EQ(r.op.label, "test.watchdog.loop");
  EXPECT_EQ(r.stall_ms, 100u);
  EXPECT_GE(r.quiet_ms, 100u);
  EXPECT_FALSE(r.all_ops.empty());
  // The stalled op's budget state rode along in the report.
  ASSERT_TRUE(r.op.budget.present);
  EXPECT_FALSE(r.op.budget.stopped);

  // Observation only: the computation itself is untouched.
  EXPECT_FALSE(budget.Stopped());
  EXPECT_EQ(budget.steps_used(), 200u);
}

TEST_F(WatchdogTest, ReArmsAndReportsASecondDistinctStall) {
  trap_.Install();
  ASSERT_TRUE(obs::StartWatchdog(/*stall_ms=*/80));

  guard::Budget budget(guard::BudgetSpec{});
  {
    obs::OpScope op(obs::OpKind::kOther, "test.watchdog.rearm");
    auto stall_once = [&] {
      guard::ArmStallFault(/*at_step=*/1, /*sleep_ms=*/250);
      // A fresh progress burst, then the injected freeze.
      for (int i = 0; i < 5; ++i) budget.Checkpoint();
      guard::DisarmFaults();
    };
    stall_once();
    // Progress resumes (re-arming the trigger), then a second stall.
    for (int i = 0; i < 5; ++i) {
      budget.Checkpoint();
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    stall_once();
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  EXPECT_EQ(trap_.Reports().size(), 2u);
}

TEST_F(WatchdogTest, StaysSilentWhileProgressFlows) {
  trap_.Install();
  ASSERT_TRUE(obs::StartWatchdog(/*stall_ms=*/100));

  guard::Budget budget(guard::BudgetSpec{});
  {
    obs::OpScope op(obs::OpKind::kOther, "test.watchdog.lively");
    // 300ms of wall clock — three thresholds — but heartbeats never pause.
    for (int i = 0; i < 30; ++i) {
      budget.Checkpoint();
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
  EXPECT_TRUE(trap_.Reports().empty());
}

TEST_F(WatchdogTest, StallLeavesEngineVerdictAndPrefixUntouched) {
  NamePool pool;
  ViewSet views;
  auto v = ParseCq("V(x) :- E(x, y)", pool);
  ASSERT_TRUE(v.ok());
  views.Add(v.value().head_name(), Query::FromCq(v.value()));
  auto q = ParseCq("Q(x, y) :- E(x, y)", pool);
  ASSERT_TRUE(q.ok());
  Schema base{{"E", 2}};

  EnumerationOptions options;
  options.domain_size = 2;
  options.threads = 1;

  // Clean governed run first: the reference verdict and prefix.
  guard::Budget clean_budget(guard::BudgetSpec{.max_steps = 100000});
  options.budget = &clean_budget;
  DeterminacySearchResult clean = SearchDeterminacyCounterexample(
      views, Query::FromCq(q.value()), base, options);

  // Same call with a 300ms stall injected at the 2nd enumeration checkpoint
  // (the sweep finds its counterexample at the 3rd instance, so the stall
  // must land before that) and the watchdog armed tight enough to trip
  // during it.
  trap_.Install();
  ASSERT_TRUE(obs::StartWatchdog(/*stall_ms=*/80));
  guard::ArmStallFault(/*at_step=*/2, /*sleep_ms=*/300);
  guard::Budget stalled_budget(guard::BudgetSpec{.max_steps = 100000});
  options.budget = &stalled_budget;
  DeterminacySearchResult stalled = SearchDeterminacyCounterexample(
      views, Query::FromCq(q.value()), base, options);
  EXPECT_TRUE(guard::FaultFired());
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  // Byte-identical decision surface: verdict, prefix, outcome, pair.
  EXPECT_EQ(stalled.verdict, clean.verdict);
  EXPECT_EQ(stalled.instances_examined, clean.instances_examined);
  EXPECT_EQ(stalled.outcome, clean.outcome);
  ASSERT_EQ(stalled.counterexample.has_value(), clean.counterexample.has_value());
  if (clean.counterexample.has_value()) {
    EXPECT_EQ(stalled.counterexample->d1.ToKey(),
              clean.counterexample->d1.ToKey());
    EXPECT_EQ(stalled.counterexample->d2.ToKey(),
              clean.counterexample->d2.ToKey());
  }
  EXPECT_EQ(stalled_budget.steps_used(), clean_budget.steps_used());

  // And exactly one report, attributed to the search op.
  std::vector<obs::StallReport> reports = trap_.Reports();
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_EQ(reports.front().op.label, "search.determinacy");
  EXPECT_EQ(reports.front().op.kind, obs::OpKind::kSearch);
}

TEST_F(WatchdogTest, ReportSerializesAsOneStallEvent) {
  trap_.Install();
  ASSERT_TRUE(obs::StartWatchdog(/*stall_ms=*/80));
  guard::ArmStallFault(/*at_step=*/10, /*sleep_ms=*/250);

  guard::Budget budget(guard::BudgetSpec{.max_steps = 1000});
  {
    obs::OpScope op(obs::OpKind::kChase, "test.watchdog.json", &budget);
    for (int i = 0; i < 20; ++i) budget.Checkpoint();
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  std::vector<obs::StallReport> reports = trap_.Reports();
  ASSERT_EQ(reports.size(), 1u);
  std::string json = reports.front().ToJson();
  EXPECT_EQ(json.find("{\"event\":\"stall\",\"unix_ms\":"), 0u);
  EXPECT_NE(json.find("\"stall_ms\":80"), std::string::npos);
  EXPECT_NE(json.find("\"op\":{"), std::string::npos);
  EXPECT_NE(json.find("\"label\":\"test.watchdog.json\""), std::string::npos);
  EXPECT_NE(json.find("\"all_ops\":["), std::string::npos);
  EXPECT_NE(json.find("\"threads\":["), std::string::npos);
  EXPECT_EQ(json.back(), '}');
}

// Thresholds a timed wait cannot represent must be refused: the stall check
// reads a 2^64-1 ms threshold (what "-1" reads as through strtoull) as
// -1 ms, and every op would count as stalled.
TEST_F(WatchdogTest, RefusesUnrepresentablePeriods) {
  EXPECT_FALSE(obs::StartWatchdog(std::numeric_limits<std::uint64_t>::max()));
  EXPECT_FALSE(obs::StartWatchdog(kMaxWaitMs + 1));
  EXPECT_FALSE(obs::WatchdogRunning());
}

TEST_F(WatchdogTest, StartIsIdempotentAndRejectsZeroThreshold) {
  EXPECT_FALSE(obs::StartWatchdog(0));
  ASSERT_TRUE(obs::StartWatchdog(100));
  EXPECT_FALSE(obs::StartWatchdog(100));  // already running
  obs::StopWatchdog();
  EXPECT_FALSE(obs::WatchdogRunning());
}

}  // namespace
}  // namespace vqdr
