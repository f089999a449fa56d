// Determinism regressions for the parallel search: repeated parallel runs
// must be byte-identical to each other and to the serial sweep, and the
// instances_examined field must carry the exact serial-order prefix length —
// pinned here against hand-computed values on the {E/2} space.

#include <gtest/gtest.h>

#include <cstdint>

#include "core/finite_search.h"
#include "cq/conjunctive_query.h"
#include "obs/metrics.h"
#include "views/view_set.h"

namespace vqdr {
namespace {

ConjunctiveQuery EdgeQuery(const std::string& name,
                           std::vector<Term> head_terms) {
  ConjunctiveQuery q(name, std::move(head_terms));
  Atom a;
  a.predicate = "E";
  a.args = {Term::Var("x"), Term::Var("y")};
  q.AddAtom(a);
  return q;
}

// V(x) :- E(x, y): the paper's basic non-determined projection.
ViewSet ProjectionView() {
  ViewSet views;
  views.Add("V", Query::FromCq(EdgeQuery("V", {Term::Var("x")})));
  return views;
}

// V(x, y) :- E(x, y): the identity view, which determines everything.
ViewSet IdentityView() {
  ViewSet views;
  views.Add("V",
            Query::FromCq(EdgeQuery("V", {Term::Var("x"), Term::Var("y")})));
  return views;
}

Query FullQuery() {
  return Query::FromCq(EdgeQuery("Q", {Term::Var("x"), Term::Var("y")}));
}

void ExpectIdentical(const DeterminacySearchResult& a,
                     const DeterminacySearchResult& b) {
  ASSERT_EQ(a.verdict, b.verdict);
  EXPECT_EQ(a.instances_examined, b.instances_examined);
  ASSERT_EQ(a.counterexample.has_value(), b.counterexample.has_value());
  if (a.counterexample) {
    EXPECT_EQ(a.counterexample->d1, b.counterexample->d1);
    EXPECT_EQ(a.counterexample->d2, b.counterexample->d2);
  }
}

TEST(ParDeterminism, FiveParallelRunsAreByteIdenticalOnFoundWorkload) {
  Schema base{{"E", 2}};
  EnumerationOptions options;
  options.domain_size = 3;  // 512 instances, conflict early
  options.threads = 8;
  DeterminacySearchResult first =
      SearchDeterminacyCounterexample(ProjectionView(), FullQuery(), base,
                                      options);
  ASSERT_EQ(first.verdict, SearchVerdict::kCounterexampleFound);
  for (int run = 1; run < 5; ++run) {
    DeterminacySearchResult again = SearchDeterminacyCounterexample(
        ProjectionView(), FullQuery(), base, options);
    SCOPED_TRACE(::testing::Message() << "run " << run);
    ExpectIdentical(first, again);
  }
}

TEST(ParDeterminism, FiveParallelRunsAreByteIdenticalOnCleanWorkload) {
  Schema base{{"E", 2}};
  EnumerationOptions options;
  options.domain_size = 3;  // 512 instances, no conflict under identity
  options.threads = 8;
  DeterminacySearchResult first = SearchDeterminacyCounterexample(
      IdentityView(), FullQuery(), base, options);
  ASSERT_EQ(first.verdict, SearchVerdict::kNoneWithinBound);
  EXPECT_EQ(first.instances_examined, 512u);
  for (int run = 1; run < 5; ++run) {
    DeterminacySearchResult again = SearchDeterminacyCounterexample(
        IdentityView(), FullQuery(), base, options);
    SCOPED_TRACE(::testing::Message() << "run " << run);
    ExpectIdentical(first, again);
  }
}

// The {E/2} domain-2 space enumerates 16 instances; tuple pool order is
// (1,1), (1,2), (2,1), (2,2) with subset masks ascending, so index 1 is
// {E(1,1)} and index 2 is {E(1,2)}. Under V(x) :- E(x,y) both map to view
// image {V(1)}, and Q = E tells them apart: the serial sweep stops on index
// 2 having examined exactly 3 instances. Every thread count must report the
// same pair and the same count.
TEST(ParDeterminism, ExaminedCountPinnedOnConflictWorkload) {
  Schema base{{"E", 2}};
  for (int threads : {1, 2, 8}) {
    EnumerationOptions options;
    options.domain_size = 2;
    options.threads = threads;
    DeterminacySearchResult result = SearchDeterminacyCounterexample(
        ProjectionView(), FullQuery(), base, options);
    SCOPED_TRACE(::testing::Message() << "threads " << threads);
    ASSERT_EQ(result.verdict, SearchVerdict::kCounterexampleFound);
    EXPECT_EQ(result.instances_examined, 3u);
    ASSERT_TRUE(result.counterexample.has_value());
    // d1 = {E(1,1)}, d2 = {E(1,2)}.
    Instance d1(base);
    Relation r1(2);
    r1.Insert(Tuple{Value(1), Value(1)});
    d1.Set("E", r1);
    Instance d2(base);
    Relation r2(2);
    r2.Insert(Tuple{Value(1), Value(2)});
    d2.Set("E", r2);
    EXPECT_EQ(result.counterexample->d1, d1);
    EXPECT_EQ(result.counterexample->d2, d2);
  }
}

TEST(ParDeterminism, ExaminedCountPinnedOnCompleteSweep) {
  Schema base{{"E", 2}};
  for (int threads : {1, 2, 8}) {
    EnumerationOptions options;
    options.domain_size = 2;
    options.threads = threads;
    DeterminacySearchResult result = SearchDeterminacyCounterexample(
        IdentityView(), FullQuery(), base, options);
    SCOPED_TRACE(::testing::Message() << "threads " << threads);
    ASSERT_EQ(result.verdict, SearchVerdict::kNoneWithinBound);
    EXPECT_EQ(result.instances_examined, 16u);
  }
}

TEST(ParDeterminism, ExaminedCountPinnedOnTruncatedSweep) {
  Schema base{{"E", 2}};
  for (int threads : {1, 2, 8}) {
    EnumerationOptions options;
    options.domain_size = 2;
    options.max_instances = 5;  // below the 16-instance space
    options.threads = threads;
    DeterminacySearchResult result = SearchDeterminacyCounterexample(
        IdentityView(), FullQuery(), base, options);
    SCOPED_TRACE(::testing::Message() << "threads " << threads);
    ASSERT_EQ(result.verdict, SearchVerdict::kBudgetExhausted);
    EXPECT_EQ(result.instances_examined, 5u);
  }
}

// instances_examined is computed from the merged per-worker records; the
// obs counter separately sums the *actual* per-worker work. Serially the two
// coincide exactly; in a parallel run workers may race past the earliest
// conflict before the pruning hint lands, so the counter only dominates.
TEST(ParDeterminism, ObsCounterSumsActualWorkAcrossWorkers) {
  Schema base{{"E", 2}};
  obs::Counter& counter = obs::GetCounter("search.instances");

  EnumerationOptions serial_options;
  serial_options.domain_size = 2;
  std::uint64_t before = counter.value();
  DeterminacySearchResult serial = SearchDeterminacyCounterexample(
      ProjectionView(), FullQuery(), base, serial_options);
  EXPECT_EQ(counter.value() - before, serial.instances_examined);

  EnumerationOptions par_options;
  par_options.domain_size = 2;
  par_options.threads = 8;
  before = counter.value();
  DeterminacySearchResult par = SearchDeterminacyCounterexample(
      ProjectionView(), FullQuery(), base, par_options);
  EXPECT_EQ(par.instances_examined, serial.instances_examined);
  EXPECT_GE(counter.value() - before, par.instances_examined);
}

TEST(ParDeterminism, MonotonicityParallelRunsAreByteIdentical) {
  Schema base{{"E", 2}};
  EnumerationOptions options;
  options.domain_size = 2;
  options.threads = 8;
  MonotonicitySearchResult first = SearchMonotonicityViolation(
      ProjectionView(), FullQuery(), base, options);
  for (int run = 1; run < 5; ++run) {
    MonotonicitySearchResult again = SearchMonotonicityViolation(
        ProjectionView(), FullQuery(), base, options);
    SCOPED_TRACE(::testing::Message() << "run " << run);
    ASSERT_EQ(first.verdict, again.verdict);
    EXPECT_EQ(first.instances_examined, again.instances_examined);
    ASSERT_EQ(first.violation.has_value(), again.violation.has_value());
    if (first.violation) {
      EXPECT_EQ(first.violation->d1, again.violation->d1);
      EXPECT_EQ(first.violation->d2, again.violation->d2);
    }
  }
}

}  // namespace
}  // namespace vqdr
