// End-to-end tests for decision provenance (DESIGN.md §10): the explain
// events the containment sweep, chase chain, determinacy decision, bounded
// searches, and the full analysis battery record — and, centrally, that
// every recorded containment witness REPLAYS: the homomorphism in the log
// re-checks against the instance in the log, before and after a JSON round
// trip.

#include <gtest/gtest.h>

#include <string>

#include "chase/chain.h"
#include "core/determinacy.h"
#include "core/finite_search.h"
#include "core/report.h"
#include "cq/containment.h"
#include "cq/parser.h"
#include "gen/workloads.h"
#include "obs/explain.h"

#include "memo/store.h"

namespace vqdr {
namespace {

class ExplainFixture : public ::testing::Test {
 protected:
  ConjunctiveQuery Cq(const std::string& text) {
    auto q = ParseCq(text, pool_);
    EXPECT_TRUE(q.ok()) << q.status().message() << " in: " << text;
    return q.value();
  }

  UnionQuery Ucq(const std::string& text) {
    auto q = ParseUcq(text, pool_);
    EXPECT_TRUE(q.ok()) << q.status().message() << " in: " << text;
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

// Replays every witness in `log` and counts events by kind. This is the
// acceptance check: a witness that does not verify means the log lied about
// the decision it claims to explain.
struct LogAudit {
  int witnesses = 0;
  int refutations = 0;
  int chase_levels = 0;
  int decisions = 0;
  int counterexamples = 0;
  int memo_events = 0;
  int failed_verifications = 0;
  std::string first_error;
};

LogAudit Audit(const obs::ExplainLog& log) {
  LogAudit audit;
  for (const obs::ExplainEvent& e : log.events()) {
    switch (e.kind) {
      case obs::ExplainKind::kWitness:
        ++audit.witnesses;
        break;
      case obs::ExplainKind::kRefutation:
        ++audit.refutations;
        break;
      case obs::ExplainKind::kChaseLevel:
        ++audit.chase_levels;
        break;
      case obs::ExplainKind::kDecision:
        ++audit.decisions;
        break;
      case obs::ExplainKind::kCounterexample:
        ++audit.counterexamples;
        break;
      case obs::ExplainKind::kMemo:
        ++audit.memo_events;
        break;
      default:
        break;
    }
    if (e.witness.has_value()) {
      std::string error;
      if (!e.witness->Verify(&error)) {
        ++audit.failed_verifications;
        if (audit.first_error.empty()) audit.first_error = error;
      }
    }
  }
  return audit;
}

TEST_F(ExplainFixture, ContainmentRecordsReplayableWitnessPerPattern) {
  ConjunctiveQuery triangle = Cq("Q(x) :- E(x, y), E(y, z), E(z, x)");
  ConjunctiveQuery walk = Cq("Q(x) :- E(x, u), E(u, v)");

  obs::ExplainLog log;
  CqContainmentOptions options;
  options.explain = &log;
  EXPECT_TRUE(CqContainedInGoverned(triangle, walk, options).contained);

  LogAudit audit = Audit(log);
  // Pure CQs: one canonical database, one passing pattern, zero refutations.
  EXPECT_EQ(audit.witnesses, 1);
  EXPECT_EQ(audit.refutations, 0);
  EXPECT_EQ(audit.failed_verifications, 0) << audit.first_error;
}

TEST_F(ExplainFixture, NonContainmentRecordsTheRefutingCanonicalDatabase) {
  ConjunctiveQuery walk = Cq("Q(x) :- E(x, u), E(u, v)");
  ConjunctiveQuery triangle = Cq("Q(x) :- E(x, y), E(y, z), E(z, x)");

  obs::ExplainLog log;
  CqContainmentOptions options;
  options.explain = &log;
  EXPECT_FALSE(CqContainedInGoverned(walk, triangle, options).contained);

  LogAudit audit = Audit(log);
  EXPECT_EQ(audit.refutations, 1);
  // The refutation carries the canonical database ([Q] of the walk: 2 facts).
  bool found_instance = false;
  for (const obs::ExplainEvent& e : log.events()) {
    if (e.kind == obs::ExplainKind::kRefutation) {
      EXPECT_EQ(e.instance.size(), 2u);
      found_instance = true;
    }
  }
  EXPECT_TRUE(found_instance);
}

TEST_F(ExplainFixture, DisequalitySweepRecordsEveryPatternCheck) {
  // With ≠ on the left, the sweep enumerates identification patterns; each
  // one gets its own witness or refutation and all witnesses replay.
  ConjunctiveQuery left = Cq("Q(x, y) :- E(x, y), x != y");
  ConjunctiveQuery right = Cq("Q(x, y) :- E(x, y)");

  obs::ExplainLog log;
  CqContainmentOptions options;
  options.explain = &log;
  EXPECT_TRUE(CqContainedInGoverned(left, right, options).contained);

  LogAudit audit = Audit(log);
  EXPECT_GE(audit.witnesses, 1);
  EXPECT_EQ(audit.failed_verifications, 0) << audit.first_error;
}

TEST_F(ExplainFixture, UcqWitnessNamesTheWitnessingDisjunct) {
  UnionQuery q1 = Ucq("Q(x) :- E(x, y), E(y, x)");
  UnionQuery q2 = Ucq("Q(x) :- P(x) | Q(x) :- E(x, u)");

  obs::ExplainLog log;
  CqContainmentOptions options;
  options.explain = &log;
  EXPECT_TRUE(UcqContainedInGoverned(q1, q2, options).contained);

  bool found = false;
  for (const obs::ExplainEvent& e : log.events()) {
    if (e.kind != obs::ExplainKind::kWitness) continue;
    found = true;
    EXPECT_EQ(e.label, "ucq.sub");
    // The cycle maps into the edge disjunct (index 1), not P.
    ASSERT_EQ(e.stats.count("disjunct"), 1u);
    EXPECT_EQ(e.stats.at("disjunct"), 1);
    ASSERT_TRUE(e.witness.has_value());
    std::string error;
    EXPECT_TRUE(e.witness->Verify(&error)) << error;
  }
  EXPECT_TRUE(found);
}

TEST_F(ExplainFixture, GovernedContainmentRecordsTheSameProvenance) {
  ConjunctiveQuery triangle = Cq("Q(x) :- E(x, y), E(y, z), E(z, x)");
  ConjunctiveQuery walk = Cq("Q(x) :- E(x, u), E(u, v)");

  obs::ExplainLog log;
  CqContainmentOptions options;
  options.explain = &log;
  ContainmentResult result = CqContainedInGoverned(triangle, walk, options);
  EXPECT_TRUE(result.contained);
  EXPECT_EQ(result.outcome, guard::Outcome::kComplete);

  LogAudit audit = Audit(log);
  EXPECT_EQ(audit.witnesses, 1);
  EXPECT_EQ(audit.failed_verifications, 0) << audit.first_error;
}

TEST_F(ExplainFixture, ChaseChainRecordsLevelSizesAndFreshNulls) {
  ViewSet views = CqViews({"V(x, y) :- E(x, z), E(z, y)"});
  ConjunctiveQuery q = Cq("Q(x, y) :- E(x, a), E(a, b), E(b, y)");

  obs::ExplainLog log;
  ChaseChainOptions options;
  options.levels = 2;
  options.explain = &log;
  ValueFactory factory;
  ChaseChain chain = BuildChaseChain(views, q, options, factory);
  ASSERT_EQ(chain.d.size(), 3u);

  LogAudit audit = Audit(log);
  ASSERT_EQ(audit.chase_levels, 3);
  // Each event's recorded sizes match the chain it claims to describe.
  // Level 0 always mints nulls (freezing the query plus the first inverse);
  // deeper levels may hit the chase fixpoint and mint none, so only
  // non-negativity holds there.
  int level = 0;
  for (const obs::ExplainEvent& e : log.events()) {
    if (e.kind != obs::ExplainKind::kChaseLevel) continue;
    EXPECT_EQ(e.stats.at("level"), level);
    EXPECT_EQ(e.stats.at("d_facts"),
              static_cast<std::int64_t>(chain.d[level].TupleCount()));
    EXPECT_EQ(e.stats.at("d_prime_facts"),
              static_cast<std::int64_t>(chain.d_prime[level].TupleCount()));
    EXPECT_EQ(e.stats.at("s_facts"),
              static_cast<std::int64_t>(chain.s[level].TupleCount()));
    EXPECT_GE(e.stats.at("fresh_nulls"), level == 0 ? 1 : 0);
    ++level;
  }
}

TEST_F(ExplainFixture, DeterminedDecisionCarriesAVerifyingWitness) {
  ViewSet views = CqViews({"V(x, y) :- E(x, y)"});
  ConjunctiveQuery q = Cq("Q(x, y) :- E(x, z), E(z, y)");

  obs::ExplainLog log;
  auto result = DecideUnrestrictedDeterminacy(views, q, nullptr, &log);
  EXPECT_TRUE(result.determined);

  LogAudit audit = Audit(log);
  EXPECT_EQ(audit.decisions, 1);
  EXPECT_EQ(audit.failed_verifications, 0) << audit.first_error;
  for (const obs::ExplainEvent& e : log.events()) {
    if (e.kind != obs::ExplainKind::kDecision) continue;
    EXPECT_EQ(e.stats.at("determined"), 1);
    ASSERT_TRUE(e.witness.has_value());
    // The decision witness is exactly the Theorem 3.7 test: Q maps into the
    // chased-back inverse hitting the frozen head.
    EXPECT_EQ(e.witness->instance.size(),
              result.chase_inverse.TupleCount());
  }
}

TEST_F(ExplainFixture, UndeterminedDecisionCarriesTheChaseInverse) {
  ViewSet views = CqViews({"P2(x, y) :- E(x, z), E(z, y)"});
  ConjunctiveQuery q = Cq("Q(x, y) :- E(x, a), E(a, b), E(b, y)");

  obs::ExplainLog log;
  auto result = DecideUnrestrictedDeterminacy(views, q, nullptr, &log);
  EXPECT_FALSE(result.determined);

  for (const obs::ExplainEvent& e : log.events()) {
    if (e.kind != obs::ExplainKind::kDecision) continue;
    EXPECT_EQ(e.stats.at("determined"), 0);
    EXPECT_FALSE(e.witness.has_value());
    EXPECT_EQ(e.instance.size(), result.chase_inverse.TupleCount());
  }
}

TEST_F(ExplainFixture, SearchRecordsTheCounterexamplePair) {
  // Parity example: P2 does not finitely determine the length-3 query, and
  // the bounded search finds a concrete refuting pair.
  ViewSet views = CqViews({"P2(x, y) :- E(x, z), E(z, y)"});
  ConjunctiveQuery q = Cq("Q(x, y) :- E(x, a), E(a, b), E(b, y)");

  obs::ExplainLog log;
  EnumerationOptions options;
  options.domain_size = 2;
  options.explain = &log;
  DeterminacySearchResult result = SearchDeterminacyCounterexample(
      views, Query::FromCq(q), Schema{{"E", 2}}, options);

  ASSERT_EQ(log.size(), 1u);
  const std::vector<obs::ExplainEvent> events = log.events();
  const obs::ExplainEvent& e = events[0];
  if (result.verdict == SearchVerdict::kCounterexampleFound) {
    EXPECT_EQ(e.kind, obs::ExplainKind::kCounterexample);
    ASSERT_TRUE(result.counterexample.has_value());
    EXPECT_EQ(e.instance.size(),
              result.counterexample->d1.TupleCount());
    EXPECT_EQ(e.instance2.size(),
              result.counterexample->d2.TupleCount());
  } else {
    EXPECT_EQ(e.kind, obs::ExplainKind::kNote);
  }
}

TEST_F(ExplainFixture, MemoProbesAppearAsHitAndMissEvents) {
  ConjunctiveQuery triangle = Cq("Q(x) :- E(x, y), E(y, z), E(z, x)");
  ConjunctiveQuery walk = Cq("Q(x) :- E(x, u), E(u, v)");

  memo::Store store(64);
  memo::ScopedEnable on(true, &store);
  obs::ExplainLog log;
  CqContainmentOptions options;
  options.explain = &log;
  EXPECT_TRUE(CqContainedInGoverned(triangle, walk, options).contained);
  EXPECT_TRUE(CqContainedInGoverned(triangle, walk, options).contained);

  int hits = 0, misses = 0;
  for (const obs::ExplainEvent& e : log.events()) {
    if (e.kind != obs::ExplainKind::kMemo) continue;
    e.stats.at("hit") == 1 ? ++hits : ++misses;
  }
  EXPECT_EQ(misses, 1);  // cold call
  EXPECT_EQ(hits, 1);    // warm call skips the sweep
}

TEST_F(ExplainFixture, ReportLogSurvivesJsonRoundTripWithReplay) {
  // The full battery on the determined example, serialized and parsed back:
  // the acceptance criterion — each recorded homomorphism re-checks against
  // its recorded instance after the round trip.
  ViewSet views = CqViews({"V(x, y) :- E(x, y)"});
  ConjunctiveQuery q = Cq("Q(x, y) :- E(x, z), E(z, y)");

  DeterminacyAnalysisOptions opts;
  opts.search.domain_size = 2;
  opts.explain = true;
  DeterminacyReport report =
      AnalyzeDeterminacy(views, q, Schema{{"E", 2}}, opts);
  EXPECT_EQ(report.verdict, DeterminacyVerdict::kDeterminedWithRewriting);

  ASSERT_FALSE(report.explain.empty());
  // The battery closes with the verdict event.
  EXPECT_EQ(report.explain.events().back().label, "report.verdict");
  EXPECT_EQ(report.explain.events().back().detail,
            "determined (with rewriting)");

  std::string json = report.explain.ToJson();
  std::string error;
  auto parsed = obs::ExplainLog::FromJson(json, &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  ASSERT_EQ(parsed->size(), report.explain.size());

  LogAudit audit = Audit(*parsed);
  EXPECT_GE(audit.witnesses + audit.decisions, 1);
  EXPECT_EQ(audit.failed_verifications, 0) << audit.first_error;
  // And the round trip is lossless: re-serialization is byte-identical.
  EXPECT_EQ(parsed->ToJson(), json);
}

TEST_F(ExplainFixture, RefutedReportCarriesCounterexampleProvenance) {
  ViewSet views = CqViews({"P2(x, y) :- E(x, z), E(z, y)"});
  ConjunctiveQuery q = Cq("Q(x, y) :- E(x, a), E(a, b), E(b, y)");

  DeterminacyAnalysisOptions opts;
  opts.search.domain_size = 2;
  opts.explain = true;
  DeterminacyReport report =
      AnalyzeDeterminacy(views, q, Schema{{"E", 2}}, opts);

  LogAudit audit = Audit(report.explain);
  EXPECT_EQ(audit.decisions, 2);  // the chase decision + the closing verdict
  if (report.verdict == DeterminacyVerdict::kRefuted) {
    EXPECT_EQ(audit.counterexamples, 1);
    EXPECT_EQ(report.explain.events().back().detail, "refuted");
  }
  EXPECT_EQ(audit.failed_verifications, 0) << audit.first_error;
}

TEST_F(ExplainFixture, NullSinkRecordsNothingAndCostsNothing) {
  // No explain sink: identical verdicts, no events anywhere (this is the
  // default path every existing caller takes).
  ConjunctiveQuery triangle = Cq("Q(x) :- E(x, y), E(y, z), E(z, x)");
  ConjunctiveQuery walk = Cq("Q(x) :- E(x, u), E(u, v)");
  CqContainmentOptions options;  // explain == nullptr
  EXPECT_TRUE(CqContainedInGoverned(triangle, walk, options).contained);
  EXPECT_FALSE(obs::Wants(options.explain));
}

}  // namespace
}  // namespace vqdr
