// Tests for the combined determinacy analysis battery and the
// instance-based determinacy extension (the direction named in the
// paper's conclusion).

#include <gtest/gtest.h>

#include "core/report.h"
#include "cq/parser.h"
#include "gen/workloads.h"
#include "reductions/counterexamples.h"

namespace vqdr {
namespace {

class ReportFixture : public ::testing::Test {
 protected:
  ConjunctiveQuery Cq(const std::string& text) {
    auto q = ParseCq(text, pool_);
    EXPECT_TRUE(q.ok()) << q.status().message();
    return q.value();
  }

  NamePool pool_;
};

TEST_F(ReportFixture, DeterminedCaseProducesRewriting) {
  ViewSet views = PathViews(2);
  ConjunctiveQuery q = ChainQuery(3);
  DeterminacyAnalysisOptions opts;
  opts.search.domain_size = 2;
  DeterminacyReport report =
      AnalyzeDeterminacy(views, q, Schema{{"E", 2}}, opts);
  EXPECT_EQ(report.verdict, DeterminacyVerdict::kDeterminedWithRewriting);
  ASSERT_TRUE(report.rewriting.has_value());
  EXPECT_FALSE(report.monotonicity_violation.has_value());
  EXPECT_NE(report.Summary().find("DETERMINED"), std::string::npos);
}

TEST_F(ReportFixture, SummaryIncludesMetricsBlock) {
  ViewSet views = PathViews(2);
  ConjunctiveQuery q = ChainQuery(3);
  DeterminacyAnalysisOptions opts;
  opts.search.domain_size = 2;
  DeterminacyReport report =
      AnalyzeDeterminacy(views, q, Schema{{"E", 2}}, opts);

  // The battery always exercises the chase decision, so its metrics delta
  // must carry the determinacy and homomorphism counters.
  EXPECT_FALSE(report.metrics.empty());
  EXPECT_GE(report.metrics.counters["determinacy.decisions"], 1u);
  EXPECT_GE(report.metrics.counters["cq.hom.attempts"], 1u);

  std::string summary = report.Summary();
  EXPECT_NE(summary.find("[metrics]"), std::string::npos);
  EXPECT_NE(summary.find("determinacy.decisions="), std::string::npos);
}

TEST_F(ReportFixture, RefutedCaseCarriesCounterexample) {
  ViewSet views;
  views.Add("V", Query::FromCq(Cq("V(x) :- E(x, y)")));
  ConjunctiveQuery q = Cq("Q(x, y) :- E(x, y)");
  DeterminacyAnalysisOptions opts;
  opts.search.domain_size = 2;
  DeterminacyReport report =
      AnalyzeDeterminacy(views, q, Schema{{"E", 2}}, opts);
  EXPECT_EQ(report.verdict, DeterminacyVerdict::kRefuted);
  ASSERT_TRUE(report.counterexample.has_value());
  EXPECT_EQ(views.Apply(report.counterexample->d1),
            views.Apply(report.counterexample->d2));
  EXPECT_NE(report.Summary().find("REFUTED"), std::string::npos);
}

TEST_F(ReportFixture, OpenCaseIsReportedAsOpen) {
  // P2-only views vs the 3-chain: not determined unrestrictedly; whether a
  // finite counterexample exists at domain 2 decides the verdict between
  // refuted and open — either way the report must be coherent.
  ViewSet views;
  views.Add("P2", Query::FromCq(Cq("P2(x, y) :- E(x, z), E(z, y)")));
  ConjunctiveQuery q = ChainQuery(3);
  DeterminacyAnalysisOptions opts;
  opts.search.domain_size = 2;
  DeterminacyReport report =
      AnalyzeDeterminacy(views, q, Schema{{"E", 2}}, opts);
  EXPECT_FALSE(report.unrestricted.determined);
  if (report.verdict == DeterminacyVerdict::kRefuted) {
    EXPECT_TRUE(report.counterexample.has_value());
  } else {
    EXPECT_EQ(report.verdict, DeterminacyVerdict::kOpenWithinBound);
    EXPECT_NE(report.Summary().find("OPEN"), std::string::npos);
  }
}

TEST_F(ReportFixture, InstanceDeterminacyOnDeterminedExtent) {
  Schema base{{"E", 2}};
  ViewSet views = PathViews(1);
  Query q = Query::FromCq(ChainQuery(2));
  Instance extent = views.Apply(PathInstance(3));
  auto result = DecideInstanceDeterminacy(views, q, base, extent,
                                          /*extra_values=*/0,
                                          /*max_instances=*/1 << 20);
  EXPECT_TRUE(result.any_preimage);
  EXPECT_TRUE(result.determined_on_instance);
  EXPECT_EQ(result.answer, q.Eval(PathInstance(3)));
}

TEST_F(ReportFixture, InstanceDeterminacyCanHoldWhereGlobalFails) {
  // V(x) = ∃y E(x,y) globally does NOT determine Q() = ∃xy E(x,y) —
  // except it does on every instance, since both are emptiness tests.
  // Sharper: Q(x) = E(x,x). On the extent E is forced to a self-loop only
  // when one element is available and no extras are allowed.
  Schema base{{"E", 2}};
  ViewSet views;
  views.Add("V", Query::FromCq(
                     ParseCq("V(x) :- E(x, y)", pool_).value()));
  Query q = Query::FromCq(ParseCq("Q(x) :- E(x, x)", pool_).value());

  Instance extent(views.OutputSchema());
  extent.AddFact("V", MakeTuple({1}));

  // Without fresh values, E ⊆ {1}×{1}: the only pre-image is {E(1,1)} —
  // instance-determined.
  auto strict = DecideInstanceDeterminacy(views, q, base, extent, 0, 1 << 20);
  EXPECT_TRUE(strict.any_preimage);
  EXPECT_TRUE(strict.determined_on_instance);
  EXPECT_TRUE(strict.answer.Contains(MakeTuple({1})));

  // With one fresh value allowed, E(1,fresh) is also a pre-image and the
  // answers disagree: not instance-determined.
  auto loose = DecideInstanceDeterminacy(views, q, base, extent, 1, 1 << 20);
  EXPECT_TRUE(loose.any_preimage);
  EXPECT_FALSE(loose.determined_on_instance);
  ASSERT_TRUE(loose.disagreement.has_value());
}

TEST_F(ReportFixture, MonotonicityProbeFiresOnProp58) {
  NonMonotonicityFamily family = Prop58Family(pool_);
  // The battery is CQ-focused; Prop 5.8's query is a plain CQ, its views
  // are UCQs, so the unrestricted chase decision does not apply — use the
  // probe directly through the report on the CQ-views variant:
  // here we call the search component via AnalyzeDeterminacy's options on
  // a CQ-view family exhibiting the same effect is not available, so probe
  // the original family directly.
  EnumerationOptions options;
  options.domain_size = 2;
  auto probe = SearchMonotonicityViolation(family.views, family.query,
                                           family.base, options);
  EXPECT_EQ(probe.verdict, SearchVerdict::kCounterexampleFound);
}

}  // namespace
}  // namespace vqdr
