// Chaos battery for the service layer (svc/service.h + guard/fault.h):
// every injected fault must surface as a structured, Outcome-tagged
// response — a handler throw becomes ok=false/"internal", a cancellation
// becomes an ok CANCELLED prefix, a fault inside one batch item degrades
// that item while the batch answers, an injected stall is detected by the
// obs watchdog whose cancel hook frees the admission slot. The service and
// subsequent requests survive every scenario.

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "base/rng.h"
#include "guard/fault.h"
#include "guard/outcome.h"
#include "memo/memo.h"
#include "memo/store.h"
#include "obs/json.h"
#include "obs/watchdog.h"
#include "svc/proto.h"
#include "svc/service.h"

namespace vqdr::svc {
namespace {

// Enough chase work for several budget checkpoints.
constexpr const char* kJoinRequest =
    "{\"op\":\"determinacy\",\"schema\":\"R/2 S/2\","
    "\"views\":[\"V1(x,y) :- R(x,y)\",\"V2(x,y) :- S(x,y)\"],"
    "\"query\":\"Q(x,z) :- R(x,y), S(y,z)\"}";

Request MustParse(const std::string& line) {
  StatusOr<Request> req = ParseRequest(line);
  EXPECT_TRUE(req.ok()) << req.status().message();
  return std::move(req).value();
}

// Service turns the process-wide memo store on, so a request one test
// completed would answer the same request in a later test from the cache,
// and that test's armed fault would never fire. Every test starts and ends
// with an empty store.
class SvcChaosTest : public ::testing::Test {
 protected:
  void SetUp() override { memo::GlobalStore().Clear(); }
  void TearDown() override {
    guard::DisarmFaults();
    obs::StopWatchdog();
    memo::GlobalStore().Clear();
  }
};

TEST_F(SvcChaosTest, InjectedTaskThrowBecomesStructuredInternal) {
  Service service;
  guard::ArmFault(guard::FaultKind::kTaskThrow, "svc.request", 1);
  Response r = service.Handle(MustParse(kJoinRequest));
  EXPECT_TRUE(guard::FaultFired());
  guard::DisarmFaults();

  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.code, "internal");
  ASSERT_TRUE(r.has_outcome);
  EXPECT_EQ(r.outcome, guard::Outcome::kInternalError);

  ServiceStats stats = service.stats();
  EXPECT_EQ(stats.internal_errors, 1u);
  EXPECT_EQ(stats.completed, 1u);  // the request finished, structurally
  EXPECT_EQ(service.in_flight(), 0u);  // slot freed

  // The service survived the throw: the next request is served normally.
  Response again = service.Handle(MustParse(kJoinRequest));
  EXPECT_TRUE(again.ok);
  EXPECT_EQ(again.outcome, guard::Outcome::kComplete);
}

TEST_F(SvcChaosTest, CancelAtStepDegradesToHonestPrefix) {
  Service service;
  guard::ArmFault(guard::FaultKind::kCancel, nullptr, 2);
  Response r = service.Handle(MustParse(kJoinRequest));
  EXPECT_TRUE(guard::FaultFired());
  guard::DisarmFaults();

  ASSERT_TRUE(r.ok);  // cancellation degrades, it does not fail
  ASSERT_TRUE(r.has_outcome);
  EXPECT_EQ(r.outcome, guard::Outcome::kCancelled);
  // Never a fabricated verdict on a cancelled run.
  EXPECT_EQ(r.result_json.find("\"determined\""), std::string::npos);
  EXPECT_EQ(service.stats().internal_errors, 0u);
}

TEST_F(SvcChaosTest, InjectedStallIsDetectedCancelledAndReported) {
  Service service;  // installs the stall-cancel hook
  ASSERT_TRUE(obs::StartWatchdog(/*stall_ms=*/100));
  std::uint64_t reports_before = obs::WatchdogStallReports();

  // The first checkpoint sleeps 2s — far past the 100ms stall threshold.
  // The watchdog must report exactly once, and the service's hook must
  // cancel the stalled request's budget so the handler stops at its next
  // checkpoint with an honest CANCELLED prefix.
  guard::ArmStallFault(/*at_step=*/1, /*sleep_ms=*/2000);
  Response r = service.Handle(MustParse(kJoinRequest));
  guard::DisarmFaults();

  ASSERT_TRUE(r.ok);
  ASSERT_TRUE(r.has_outcome);
  EXPECT_EQ(r.outcome, guard::Outcome::kCancelled);
  EXPECT_EQ(r.result_json.find("\"determined\""), std::string::npos);

  // Exactly one structured report per stall, and the cancel hook fired.
  EXPECT_EQ(obs::WatchdogStallReports() - reports_before, 1u);
  EXPECT_EQ(service.stats().watchdog_cancels, 1u);
  EXPECT_EQ(service.in_flight(), 0u);  // the stalled slot was freed

  obs::StopWatchdog();

  // The service keeps serving after the stall.
  Response again = service.Handle(MustParse(kJoinRequest));
  EXPECT_TRUE(again.ok);
  EXPECT_EQ(again.outcome, guard::Outcome::kComplete);
}

TEST_F(SvcChaosTest, FaultedBatchItemDoesNotPoisonTheBatch) {
  Service service;
  // The throw fires inside the first determinacy item (chase probes under
  // way); the batch handler's caller converts it into a structured internal
  // response, and a fresh batch afterwards is clean.
  guard::ArmFault(guard::FaultKind::kTaskThrow, "svc.request", 1);
  Response r = service.Handle(MustParse(
      "{\"op\":\"batch\",\"items\":["
      "{\"views\":[\"V(x,y) :- R(x,y)\"],\"query\":\"Q(x) :- R(x,y)\"}]}"));
  guard::DisarmFaults();
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.code, "internal");

  Response again = service.Handle(MustParse(
      "{\"op\":\"batch\",\"items\":["
      "{\"views\":[\"V(x,y) :- R(x,y)\"],\"query\":\"Q(x) :- R(x,y)\"}]}"));
  ASSERT_TRUE(again.ok);
  EXPECT_EQ(again.outcome, guard::Outcome::kComplete);
}

// A served batch of alternating determined and refuted items, all distinct
// so that no memo hit skips the faulted site, under an allocation failure
// inside the chase and under a cancellation at a seeded step: the fault
// fires, the batch answers with the fault's outcome, and every item that
// completed carries its ungoverned verdict.
TEST_F(SvcChaosTest, BatchSurvivesEveryFaultKind) {
  const char* determined[] = {
      "Q(x,y) :- E(x,z), E(z,y)", "Q(x,y) :- E(x,a), E(a,b), E(b,y)",
      "Q(x) :- E(x,y), E(y,z)", "Q(x,y) :- E(x,y), E(y,x)"};
  const char* refuted[] = {"Q(x,y) :- F(x,y)", "Q(x,y) :- F(x,z), F(z,y)",
                           "Q(x,y) :- F(x,y), F(y,x)",
                           "Q(x,y) :- F(x,y), F(y,y)"};
  std::string line = "{\"op\":\"batch\",\"items\":[";
  for (int i = 0; i < 4; ++i) {
    if (i > 0) line.push_back(',');
    line += "{\"views\":[\"V(x,y) :- E(x,y)\"],\"query\":\"" +
            std::string(determined[i]) + "\"},";
    line += "{\"views\":[\"W(x) :- F(x,y)\"],\"query\":\"" +
            std::string(refuted[i]) + "\"}";
  }
  line += "]}";
  Service service;
  // Every item that completed says "determined":true exactly at the even
  // positions; returns how many completed.
  auto check_verdicts = [](const Response& r) {
    std::optional<obs::json::Value> v =
        obs::json::Parse(r.result_json, nullptr);
    EXPECT_TRUE(v.has_value() && v->Find("items") != nullptr);
    std::size_t completed = 0;
    if (!v.has_value() || v->Find("items") == nullptr) return completed;
    const std::vector<obs::json::Value>& items = v->Find("items")->array;
    EXPECT_EQ(items.size(), 8u);
    for (std::size_t i = 0; i < items.size(); ++i) {
      const obs::json::Value* outcome = items[i].Find("outcome");
      if (outcome == nullptr || outcome->string_value != "COMPLETE") continue;
      ++completed;
      const obs::json::Value* verdict = items[i].Find("determined");
      EXPECT_TRUE(verdict != nullptr && verdict->bool_value == (i % 2 == 0))
          << "item " << i;
    }
    return completed;
  };

  Response ungoverned = service.Handle(MustParse(line));
  ASSERT_TRUE(ungoverned.ok);
  EXPECT_EQ(ungoverned.outcome, guard::Outcome::kComplete);
  EXPECT_EQ(check_verdicts(ungoverned), 8u);

  Rng rng(0xBA7C4);
  struct Scenario {
    guard::FaultKind kind;
    const char* site;
    guard::Outcome expected;
  };
  const Scenario scenarios[] = {
      {guard::FaultKind::kAllocFailure, "chase.view_inverse",
       guard::Outcome::kInternalError},
      {guard::FaultKind::kCancel, nullptr, guard::Outcome::kCancelled},
  };
  for (const Scenario& s : scenarios) {
    std::uint64_t at = 1 + rng.Below(6);
    SCOPED_TRACE(::testing::Message()
                 << "kind=" << static_cast<int>(s.kind) << " at=" << at);
    memo::GlobalStore().Clear();
    guard::ArmFault(s.kind, s.site, at);
    Response r = service.Handle(MustParse(line));
    EXPECT_TRUE(guard::FaultFired());
    guard::DisarmFaults();
    ASSERT_TRUE(r.ok);
    EXPECT_EQ(r.outcome, s.expected);
    EXPECT_LT(check_verdicts(r), 8u);
  }
}

}  // namespace
}  // namespace vqdr::svc
