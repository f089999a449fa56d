// The vqdr-serve request engine, transport-free (svc/proto.h +
// svc/service.h): protocol parsing and serialization, admission control and
// backpressure rejection shapes, graceful degradation under tripped
// budgets, and the byte-identity contract — a served result_json equals the
// JSON built from a direct engine call through the same shared builders.

#include <gtest/gtest.h>

#include <cstdio>
#include <optional>
#include <string>

#include <sys/stat.h>

#include "core/determinacy.h"
#include "cq/containment.h"
#include "cq/parser.h"
#include "guard/budget.h"
#include "guard/outcome.h"
#include "memo/memo.h"
#include "obs/json.h"
#include "svc/proto.h"
#include "svc/service.h"

#include "memo/store.h"

namespace vqdr::svc {
namespace {

constexpr const char* kDeterminedRequest =
    "{\"op\":\"determinacy\",\"id\":1,\"schema\":\"R/2\","
    "\"views\":[\"V(x,y) :- R(x,y)\"],\"query\":\"Q(x) :- R(x,y)\"}";

// A scenario with enough chase work that a 1-step budget trips mid-run.
constexpr const char* kJoinScenario =
    "\"schema\":\"R/2 S/2\","
    "\"views\":[\"V1(x,y) :- R(x,y)\",\"V2(x,y) :- S(x,y)\"],"
    "\"query\":\"Q(x,z) :- R(x,y), S(y,z)\"";

Request MustParse(const std::string& line) {
  StatusOr<Request> req = ParseRequest(line);
  EXPECT_TRUE(req.ok()) << req.status().message();
  return std::move(req).value();
}

std::optional<obs::json::Value> MustJson(const std::string& text) {
  std::string error;
  std::optional<obs::json::Value> v = obs::json::Parse(text, &error);
  EXPECT_TRUE(v.has_value()) << error << " in: " << text;
  return v;
}

TEST(SvcProto, ParseRequestMapsEveryField) {
  Request req = MustParse(
      "{\"op\":\"determinacy\",\"id\":\"req-9\",\"tenant\":\"gold\","
      "\"deadline_ms\":500,\"max_steps\":100,\"max_atoms\":200,"
      "\"max_chase_levels\":4,\"schema\":\"R/2 S/1\","
      "\"views\":[\"V(x) :- R(x,y)\"],\"query\":\"Q(x) :- R(x,x)\","
      "\"q1\":\"A() :- R(x,y)\",\"q2\":\"B() :- R(x,x)\",\"levels\":3}");
  EXPECT_EQ(req.op, "determinacy");
  EXPECT_EQ(req.id, "\"req-9\"");  // pre-serialized for verbatim echo
  EXPECT_EQ(req.tenant, "gold");
  EXPECT_EQ(req.budget.wall_ms, 500);
  EXPECT_EQ(req.budget.max_steps, 100u);
  EXPECT_EQ(req.budget.max_atoms, 200u);
  EXPECT_EQ(req.budget.max_chase_levels, 4);
  EXPECT_EQ(req.schema, "R/2 S/1");
  ASSERT_EQ(req.views.size(), 1u);
  EXPECT_EQ(req.views[0], "V(x) :- R(x,y)");
  EXPECT_EQ(req.query, "Q(x) :- R(x,x)");
  EXPECT_EQ(req.q1, "A() :- R(x,y)");
  EXPECT_EQ(req.q2, "B() :- R(x,x)");
  EXPECT_EQ(req.levels, 3);

  Request numeric_id = MustParse("{\"op\":\"health\",\"id\":42}");
  EXPECT_EQ(numeric_id.id, "42");
  Request no_id = MustParse("{\"op\":\"health\"}");
  EXPECT_EQ(no_id.id, "");

  // A default request imposes no budget.
  EXPECT_EQ(no_id.budget.wall_ms, -1);
  EXPECT_EQ(no_id.budget.max_steps, 0u);
}

TEST(SvcProto, ParseRequestBatchItems) {
  Request req = MustParse(
      "{\"op\":\"batch\",\"max_steps\":1000,\"items\":["
      "{\"views\":[\"V(x,y) :- R(x,y)\"],\"query\":\"Q(x) :- R(x,y)\","
      "\"budget\":{\"max_steps\":10}},"
      "{\"views\":[\"W(x) :- S(x)\"],\"query\":\"Q(x) :- S(x)\"}]}");
  EXPECT_EQ(req.budget.max_steps, 1000u);
  ASSERT_EQ(req.items.size(), 2u);
  EXPECT_EQ(req.items[0].budget.max_steps, 10u);
  EXPECT_EQ(req.items[1].budget.max_steps, 0u);
  EXPECT_EQ(req.items[1].views[0], "W(x) :- S(x)");
}

TEST(SvcProto, ParseRequestRejectsBadShapes) {
  const char* bad[] = {
      "",                                  // empty
      "not json",                          // malformed
      "[1,2,3]",                           // not an object
      "{}",                                // missing op
      "{\"op\":7}",                        // op not a string
      "{\"op\":\"x\",\"views\":\"V\"}",    // views not an array
      "{\"op\":\"x\",\"views\":[7]}",      // view element not a string
      "{\"op\":\"x\",\"deadline_ms\":-5}", // negative budget field
      "{\"op\":\"x\",\"levels\":99}",      // levels out of range
      "{\"op\":\"x\",\"levels\":-1}",
      "{\"op\":\"x\",\"items\":[7]}",      // item not an object
      "{\"op\":\"x\",\"id\":[1]}",         // id not a scalar
  };
  for (const char* line : bad) {
    EXPECT_FALSE(ParseRequest(line).ok()) << "accepted: " << line;
  }
  // Oversized frames fail before JSON parsing.
  std::string big(kMaxRequestBytes + 1, ' ');
  EXPECT_FALSE(ParseRequest(big).ok());
}

TEST(SvcProto, SerializeResponseShapes) {
  Response ok;
  ok.id = "7";
  ok.has_outcome = true;
  ok.outcome = guard::Outcome::kComplete;
  ok.result_json = "{\"x\":1}";
  ok.has_elapsed = true;
  ok.elapsed_us = 123;
  EXPECT_EQ(SerializeResponse(ok),
            "{\"id\":7,\"ok\":true,\"outcome\":\"COMPLETE\","
            "\"result\":{\"x\":1},\"elapsed_us\":123}");

  Response rejected = ErrorResponse("overloaded", "request rejected");
  rejected.has_retry = true;
  rejected.retry_after_ms = 25;
  EXPECT_EQ(SerializeResponse(rejected),
            "{\"ok\":false,\"code\":\"overloaded\","
            "\"error\":\"request rejected\",\"retry_after_ms\":25}");

  // Degraded: ok with a non-complete outcome tag.
  Response degraded;
  degraded.has_outcome = true;
  degraded.outcome = guard::Outcome::kStepBudgetExhausted;
  degraded.result_json = "{}";
  EXPECT_EQ(SerializeResponse(degraded),
            "{\"ok\":true,\"outcome\":\"STEP_BUDGET_EXHAUSTED\","
            "\"result\":{}}");
}

TEST(SvcProto, AppendJsonEscapesRoundTrip) {
  const std::string nasty = "a\"b\\c\nd\te\rf\x01g";
  std::string out;
  AppendJson(nasty, &out);
  std::optional<obs::json::Value> v = MustJson(out);
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->string_value, nasty);
}

TEST(SvcService, DeterminacyByteIdenticalToDirectCall) {
  Service service;
  Response r = service.Handle(MustParse(kDeterminedRequest));
  ASSERT_TRUE(r.ok);
  ASSERT_TRUE(r.has_outcome);
  EXPECT_EQ(r.outcome, guard::Outcome::kComplete);
  EXPECT_EQ(r.id, "1");
  EXPECT_TRUE(r.has_elapsed);

  // The same strings through the same parse order and the same result
  // builder must yield the same bytes.
  Scenario sc;
  ASSERT_TRUE(
      BuildScenario("R/2", {"V(x,y) :- R(x,y)"}, "Q(x) :- R(x,y)", &sc).ok());
  guard::Budget budget;
  UnrestrictedDeterminacyResult direct =
      DecideUnrestrictedDeterminacy(sc.views, *sc.query, &budget);
  EXPECT_TRUE(direct.determined);
  EXPECT_EQ(r.result_json, DeterminacyResultJson(direct, sc.pool));
}

TEST(SvcService, ContainmentByteIdenticalToDirectCall) {
  Service service;
  Response r = service.Handle(MustParse(
      "{\"op\":\"containment\",\"q1\":\"Q(x) :- R(x,x)\","
      "\"q2\":\"Q(x) :- R(x,y)\"}"));
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.outcome, guard::Outcome::kComplete);

  NamePool pool;
  auto q1 = ParseCq("Q(x) :- R(x,x)", pool);
  auto q2 = ParseCq("Q(x) :- R(x,y)", pool);
  ASSERT_TRUE(q1.ok() && q2.ok());
  CqContainmentOptions options;
  guard::Budget budget;
  options.budget = &budget;
  ContainmentResult direct =
      CqContainedInGoverned(q1.value(), q2.value(), options);
  EXPECT_TRUE(direct.contained);
  EXPECT_EQ(r.result_json, ContainmentResultJson(direct));
}

TEST(SvcService, UnknownOpAndBadRequestAreStructured) {
  Service service;
  Response r = service.Handle(MustParse("{\"op\":\"nope\",\"id\":3}"));
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.code, "unknown_op");
  EXPECT_EQ(r.id, "3");

  std::string line = service.HandleLine("this is not json");
  std::optional<obs::json::Value> v = MustJson(line);
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->StringOr("code", ""), "bad_request");
  EXPECT_EQ(service.stats().bad_requests, 1u);
}

TEST(SvcService, PerTenantAdmissionRejectsWithClassHint) {
  Service service;
  guard::BudgetClassSpec gold;
  gold.name = "gold";
  gold.max_concurrent = 1;
  gold.retry_after_ms = 7;
  service.classes().Define(std::move(gold));

  // Occupy the tenant's only slot, as a concurrent request would.
  guard::BudgetClass& cls = service.classes().Resolve("gold");
  ASSERT_TRUE(cls.TryAcquire());

  Request req = MustParse(kDeterminedRequest);
  req.tenant = "gold";
  Response r = service.Handle(req);
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.code, "overloaded");
  ASSERT_TRUE(r.has_retry);
  EXPECT_EQ(r.retry_after_ms, 7u);  // the class's own hint
  EXPECT_EQ(service.stats().rejected_overloaded, 1u);

  cls.Release();
  Response again = service.Handle(req);
  EXPECT_TRUE(again.ok);
}

TEST(SvcService, GlobalQueueLimitBackpressure) {
  ServiceOptions options;
  options.queue_limit = 0;  // every queued request overflows
  options.retry_after_ms = 13;
  Service service(options);

  Response r = service.Handle(MustParse(kDeterminedRequest));
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.code, "overloaded");
  ASSERT_TRUE(r.has_retry);
  EXPECT_EQ(r.retry_after_ms, 13u);
  EXPECT_EQ(service.stats().rejected_overloaded, 1u);
  EXPECT_EQ(service.in_flight(), 0u);  // the slot was rolled back

  // Control operations bypass admission and still answer.
  Response health = service.Handle(MustParse("{\"op\":\"health\"}"));
  EXPECT_TRUE(health.ok);
}

TEST(SvcService, DrainingRejectsQueuedServesControl) {
  Service service;
  service.BeginDrain();

  Response r = service.Handle(MustParse(kDeterminedRequest));
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.code, "draining");
  EXPECT_TRUE(r.has_retry);
  EXPECT_EQ(service.stats().rejected_draining, 1u);

  Response health = service.Handle(MustParse("{\"op\":\"health\"}"));
  ASSERT_TRUE(health.ok);
  EXPECT_NE(health.result_json.find("\"draining\""), std::string::npos);
}

TEST(SvcService, TrippedBudgetDegradesWithoutVerdict) {
  Service service;
  Response r = service.Handle(MustParse(
      std::string("{\"op\":\"determinacy\",\"max_steps\":1,") +
      kJoinScenario + "}"));
  ASSERT_TRUE(r.ok);  // degradation is not an error
  ASSERT_TRUE(r.has_outcome);
  EXPECT_EQ(r.outcome, guard::Outcome::kStepBudgetExhausted);
  // No fabricated verdict: the prefix fields appear, "determined" does not.
  EXPECT_EQ(r.result_json.find("\"determined\""), std::string::npos);
  EXPECT_NE(r.result_json.find("\"view_image_atoms\""), std::string::npos);
}

TEST(SvcService, TenantClassCapGovernsRequestBudget) {
  Service service;
  guard::BudgetClassSpec bronze;
  bronze.name = "bronze";
  bronze.cap.max_steps = 1;  // the class cap, not the request, trips
  service.classes().Define(std::move(bronze));

  Request req = MustParse(
      std::string("{\"op\":\"determinacy\",\"tenant\":\"bronze\",") +
      kJoinScenario + "}");
  Response r = service.Handle(req);
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.outcome, guard::Outcome::kStepBudgetExhausted);
  EXPECT_EQ(r.result_json.find("\"determined\""), std::string::npos);
}

TEST(SvcService, SchemaArityMustBeAWholeNumberInRange) {
  Service service;
  // Only a whole number in 0..32 is an arity: "R/x" is not arity 0, and
  // "R/4294967298" does not wrap to arity 2 (which would parse R(a, b)).
  for (const char* schema :
       {"R/x", "R/4294967298", "R/2x", "R/", "R/-1", "R/33"}) {
    std::string line = service.HandleLine(
        std::string("{\"op\":\"parse\",\"kind\":\"instance\",\"schema\":\"") +
        schema + "\",\"text\":\"R(a, b)\"}");
    std::optional<obs::json::Value> v = MustJson(line);
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(v->StringOr("code", ""), "bad_request") << schema << ": " << line;
  }
  Response ok = service.Handle(MustParse(
      "{\"op\":\"parse\",\"kind\":\"instance\",\"schema\":\"R/2\","
      "\"text\":\"R(a, b)\"}"));
  EXPECT_TRUE(ok.ok) << ok.error;
}

TEST(SvcService, MaxChaseLevelsAboveIntMaxIsBadRequest) {
  Service service;
  // The cap is an int: a larger value is refused, not narrowed to a cap of
  // 0 levels (4294967296) or to a negative cap, i.e. none (2147483648).
  for (const char* cap : {"4294967296", "2147483648"}) {
    std::string line = service.HandleLine(
        std::string("{\"op\":\"chase\",\"levels\":2,\"max_chase_levels\":") +
        cap + "," + kJoinScenario + "}");
    std::optional<obs::json::Value> v = MustJson(line);
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(v->StringOr("code", ""), "bad_request") << cap << ": " << line;
  }
  // INT_MAX is a cap the chase never reaches: both levels are built.
  std::string line = service.HandleLine(
      std::string("{\"op\":\"chase\",\"levels\":2,"
                  "\"max_chase_levels\":2147483647,") +
      kJoinScenario + "}");
  std::optional<obs::json::Value> v = MustJson(line);
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->StringOr("outcome", ""), "COMPLETE") << line;
}

TEST(SvcService, DeadlineBeyondClockRangeStillCompletes) {
  Service service;
  // A deadline past the steady clock's range must not overflow into the
  // past and stop the request at its first clock read. The disequality
  // makes the sweep check enough identification patterns to read the clock.
  std::string line = service.HandleLine(
      "{\"op\":\"containment\",\"deadline_ms\":9223372036854,"
      "\"q1\":\"Q(x) :- E(x,y), E(y,z), E(z,u), E(u,v), E(v,w), x != w\","
      "\"q2\":\"Q(x) :- E(x,y), E(y,z)\"}");
  std::optional<obs::json::Value> v = MustJson(line);
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->StringOr("outcome", ""), "COMPLETE") << line;
  EXPECT_NE(line.find("\"contained\":true"), std::string::npos) << line;
}

TEST(SvcService, BatchEnvelopeSkipsAfterTrip) {
  Service service;
  // Three items under a 2-step envelope: the first trips it mid-run, the
  // rest are skipped with the envelope's stop reason — an exact prefix.
  Response r = service.Handle(MustParse(
      "{\"op\":\"batch\",\"max_steps\":2,\"items\":["
      "{\"views\":[\"V1(x,y) :- R(x,y)\",\"V2(x,y) :- S(x,y)\"],"
      "\"query\":\"Q(x,z) :- R(x,y), S(y,z)\"},"
      "{\"views\":[\"V(x,y) :- R(x,y)\"],\"query\":\"Q(x) :- R(x,y)\"},"
      "{\"views\":[\"V(x,y) :- R(x,y)\"],\"query\":\"Q(x) :- R(x,y)\"}]}"));
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.outcome, guard::Outcome::kStepBudgetExhausted);
  EXPECT_NE(r.result_json.find("\"skipped\":true"), std::string::npos);
  EXPECT_NE(r.result_json.find("\"items_completed\":0"), std::string::npos);
  std::optional<obs::json::Value> v = MustJson(SerializeResponse(r));
  ASSERT_TRUE(v.has_value());
}

TEST(SvcService, BatchCompleteMatchesDirectPerItemResults) {
  Service service;
  Response r = service.Handle(MustParse(
      "{\"op\":\"batch\",\"items\":["
      "{\"views\":[\"V(x,y) :- R(x,y)\"],\"query\":\"Q(x) :- R(x,y)\"},"
      "{\"views\":[\"V(x) :- R(x,y)\"],\"query\":\"Q(x,y) :- R(x,y)\"}]}"));
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.outcome, guard::Outcome::kComplete);

  // Rebuild the expected payload through the same builders the handler uses.
  std::string expected = "{\"items\":[";
  const char* views[] = {"V(x,y) :- R(x,y)", "V(x) :- R(x,y)"};
  const char* queries[] = {"Q(x) :- R(x,y)", "Q(x,y) :- R(x,y)"};
  for (int i = 0; i < 2; ++i) {
    if (i > 0) expected.push_back(',');
    Scenario sc;
    ASSERT_TRUE(BuildScenario("", {views[i]}, queries[i], &sc).ok());
    guard::Budget budget;
    UnrestrictedDeterminacyResult direct =
        DecideUnrestrictedDeterminacy(sc.views, *sc.query, &budget);
    std::string item = DeterminacyResultJson(direct, sc.pool);
    expected.append("{\"outcome\":\"COMPLETE\",");
    expected.append(item, 1, item.size() - 1);
  }
  expected.append("],\"items_completed\":2}");
  EXPECT_EQ(r.result_json, expected);
}

TEST(SvcService, StatsOperationReportsClasses) {
  Service service;
  (void)service.Handle(MustParse(kDeterminedRequest));
  Response r = service.Handle(MustParse("{\"op\":\"stats\"}"));
  ASSERT_TRUE(r.ok);
  std::optional<obs::json::Value> v = MustJson(r.result_json);
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->IntOr("accepted", -1), 1);
  EXPECT_EQ(v->IntOr("completed", -1), 1);
  EXPECT_EQ(v->IntOr("in_flight", -1), 0);
  const obs::json::Value* classes = v->Find("classes");
  ASSERT_NE(classes, nullptr);
  ASSERT_TRUE(classes->IsArray());
  ASSERT_FALSE(classes->array.empty());
  EXPECT_EQ(classes->array[0].StringOr("name", ""), "default");
}

TEST(SvcService, MetricsOperationExportsPrometheusDelta) {
  Service service;
  (void)service.Handle(MustParse(kDeterminedRequest));
  Response r = service.Handle(MustParse("{\"op\":\"metrics\"}"));
  ASSERT_TRUE(r.ok);
  std::optional<obs::json::Value> v = MustJson(r.result_json);
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->StringOr("content_type", ""), "text/plain; version=0.0.4");
  // The body is a Prometheus text exposition.
  const obs::json::Value* body = v->Find("body");
  ASSERT_NE(body, nullptr);
  EXPECT_TRUE(body->IsString());
}

TEST(SvcService, SnapshotOpWithoutPathIsStructuredError) {
  Service service;  // no memo_snapshot_path, no VQDR_MEMO_SNAPSHOT
  Response r = service.Handle(MustParse("{\"op\":\"snapshot\"}"));
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.code, "no_snapshot");
}

TEST(SvcService, SnapshotOpWritesTheConfiguredFile) {
  std::string path = ::testing::TempDir() + "vqdr_svc_snapshot_op.bin";
  std::remove(path.c_str());
  memo::GlobalStore().Clear();

  ServiceOptions options;
  options.memo_snapshot_path = path;
  Service service(options);
  EXPECT_EQ(service.memo_snapshot_path(), path);
  (void)service.Handle(MustParse(kDeterminedRequest));

  Response r = service.Handle(MustParse("{\"op\":\"snapshot\",\"id\":7}"));
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.id, "7");
  std::optional<obs::json::Value> v = MustJson(r.result_json);
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->StringOr("path", ""), path);
  EXPECT_GE(v->IntOr("entries", 0), 1);
  EXPECT_GT(v->IntOr("bytes", 0), 0);

  struct stat st{};
  EXPECT_EQ(::stat(path.c_str(), &st), 0);
  std::remove(path.c_str());
}

// The warm-restart contract in process: service A computes and flushes at
// destruction (the SIGTERM drain path), service B boots from the snapshot
// and serves the same request byte-identically from a memo hit, never
// re-running the engine.
TEST(SvcService, WarmRestartServesByteIdenticalFromSnapshot) {
  std::string path = ::testing::TempDir() + "vqdr_svc_warm_restart.bin";
  std::remove(path.c_str());
  memo::GlobalStore().Clear();

  ServiceOptions options;
  options.memo_snapshot_path = path;
  std::string cold_result;
  {
    Service a(options);
    Response r = a.Handle(MustParse(kDeterminedRequest));
    ASSERT_TRUE(r.ok);
    cold_result = r.result_json;
  }  // destructor drain writes the final snapshot

  struct stat st{};
  ASSERT_EQ(::stat(path.c_str(), &st), 0) << "drain must have flushed";

  // "Restart": the process-wide store is emptied, then service B's
  // constructor loads the snapshot back.
  memo::GlobalStore().Clear();
  ASSERT_EQ(memo::GlobalStore().size(), 0u);
  Service b(options);
  ASSERT_GE(memo::GlobalStore().size(), 1u) << "boot load restored nothing";

  memo::StatsSnapshot before = memo::GlobalStats();
  Response warm = b.Handle(MustParse(kDeterminedRequest));
  ASSERT_TRUE(warm.ok);
  memo::StatsSnapshot delta = memo::GlobalStats().Delta(before);
  EXPECT_GE(delta.hits, 1u) << "warm boot must serve from the snapshot";
  EXPECT_EQ(warm.result_json, cold_result);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace vqdr::svc
