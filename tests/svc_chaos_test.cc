// Chaos battery for the service layer (svc/service.h + guard/fault.h):
// every injected fault must surface as a structured, Outcome-tagged
// response — a handler throw becomes ok=false/"internal", a cancellation
// becomes an ok CANCELLED prefix, an injected stall is detected by the obs
// watchdog whose cancel hook frees the admission slot. The service and
// subsequent requests survive every scenario.

#include <gtest/gtest.h>

#include <string>

#include "guard/fault.h"
#include "guard/outcome.h"
#include "memo/memo.h"
#include "memo/store.h"
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

}  // namespace
}  // namespace vqdr::svc
