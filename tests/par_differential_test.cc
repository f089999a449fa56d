// Differential battery for the bounded searches: on seeded random
// (views, query, bound) triples, the production searches must return
// *exactly* the serial oracle's answer (tests/search_oracle.h) — same
// verdict, outcome, first counterexample and examined count — ungoverned at
// every thread count, and at one thread also under a seeded step budget and
// with an allocation fault armed at a seeded instance. 200 search triples
// plus monotonicity sweeps.

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <vector>

#include "base/rng.h"
#include "core/finite_search.h"
#include "gen/random_query.h"
#include "gen/workloads.h"
#include "guard/budget.h"
#include "guard/fault.h"
#include "search_oracle.h"

namespace vqdr {
namespace {

// One random (V, Q, bound) triple, deterministic in the seed.
struct SearchTriple {
  ViewSet views;
  Query q{Query::FromCq(ConjunctiveQuery{"Q", {}})};
  Schema base{{"E", 2}, {"P", 1}};
  EnumerationOptions options;
};

SearchTriple MakeTriple(std::uint64_t seed) {
  Rng rng(seed);
  RandomCqOptions copts;  // schema {E/2, P/1}
  SearchTriple t;
  t.base = copts.schema;
  t.views = RandomCqViews(rng, copts, 1 + static_cast<int>(seed % 2));
  t.q = Query::FromCq(RandomCq(rng, copts));
  t.options.domain_size = 2;  // 64 instances over {E/2, P/1}
  // A third of the triples truncate the sweep, exercising the budget-merge
  // path; bounds straddle the 64-instance space on both sides.
  if (seed % 3 == 0) {
    t.options.max_instances = 1 + seed % 80;
  }
  return t;
}

void ExpectSameSearch(const DeterminacySearchResult& serial,
                      const DeterminacySearchResult& par, int threads,
                      std::uint64_t seed) {
  SCOPED_TRACE(::testing::Message()
               << "seed " << seed << " threads " << threads);
  ASSERT_EQ(serial.verdict, par.verdict);
  EXPECT_EQ(serial.instances_examined, par.instances_examined);
  ASSERT_EQ(serial.counterexample.has_value(), par.counterexample.has_value());
  if (serial.counterexample) {
    EXPECT_EQ(serial.counterexample->d1, par.counterexample->d1);
    EXPECT_EQ(serial.counterexample->d2, par.counterexample->d2);
  }
}

class SearchDifferential : public ::testing::TestWithParam<std::uint64_t> {};

// 200 seeded triples, the battery the parallel determinacy search is
// accepted on.
INSTANTIATE_TEST_SUITE_P(Seeds, SearchDifferential,
                         ::testing::Range<std::uint64_t>(1, 201));

TEST_P(SearchDifferential, ParallelSearchMatchesSerialAtAllThreadCounts) {
  SearchTriple t = MakeTriple(GetParam());
  DeterminacySearchResult serial =
      SearchDeterminacyCounterexample(t.views, t.q, t.base, t.options);
  for (int threads : {1, 2, 8}) {
    EnumerationOptions options = t.options;
    options.threads = threads;
    DeterminacySearchResult par =
        SearchDeterminacyCounterexample(t.views, t.q, t.base, options);
    ExpectSameSearch(serial, par, threads, GetParam());
  }
}

class MonotonicityDifferential
    : public ::testing::TestWithParam<std::uint64_t> {};

INSTANTIATE_TEST_SUITE_P(Seeds, MonotonicityDifferential,
                         ::testing::Range<std::uint64_t>(1, 41));

TEST_P(MonotonicityDifferential, ParallelScanMatchesSerial) {
  SearchTriple t = MakeTriple(GetParam());
  MonotonicitySearchResult serial =
      SearchMonotonicityViolation(t.views, t.q, t.base, t.options);
  for (int threads : {1, 2, 8}) {
    EnumerationOptions options = t.options;
    options.threads = threads;
    MonotonicitySearchResult par =
        SearchMonotonicityViolation(t.views, t.q, t.base, options);
    SCOPED_TRACE(::testing::Message()
                 << "seed " << GetParam() << " threads " << threads);
    ASSERT_EQ(serial.verdict, par.verdict);
    EXPECT_EQ(serial.instances_examined, par.instances_examined);
    ASSERT_EQ(serial.violation.has_value(), par.violation.has_value());
    if (serial.violation) {
      EXPECT_EQ(serial.violation->d1, par.violation->d1);
      EXPECT_EQ(serial.violation->d2, par.violation->d2);
      EXPECT_EQ(serial.violation->view_image1, par.violation->view_image1);
      EXPECT_EQ(serial.violation->view_image2, par.violation->view_image2);
    }
  }
}

// ---- the serial oracle ----------------------------------------------------

void ExpectMatchesOracle(const DeterminacySearchResult& oracle,
                         const DeterminacySearchResult& got) {
  EXPECT_EQ(got.verdict, oracle.verdict);
  EXPECT_EQ(got.outcome, oracle.outcome);
  EXPECT_EQ(got.instances_examined, oracle.instances_examined);
  ASSERT_EQ(got.counterexample.has_value(), oracle.counterexample.has_value());
  if (oracle.counterexample) {
    EXPECT_EQ(got.counterexample->d1, oracle.counterexample->d1);
    EXPECT_EQ(got.counterexample->d2, oracle.counterexample->d2);
  }
}

void ExpectMatchesOracle(const MonotonicitySearchResult& oracle,
                         const MonotonicitySearchResult& got) {
  EXPECT_EQ(got.verdict, oracle.verdict);
  EXPECT_EQ(got.outcome, oracle.outcome);
  EXPECT_EQ(got.instances_examined, oracle.instances_examined);
  ASSERT_EQ(got.violation.has_value(), oracle.violation.has_value());
  if (oracle.violation) {
    EXPECT_EQ(got.violation->d1, oracle.violation->d1);
    EXPECT_EQ(got.violation->d2, oracle.violation->d2);
    EXPECT_EQ(got.violation->view_image1, oracle.violation->view_image1);
    EXPECT_EQ(got.violation->view_image2, oracle.violation->view_image2);
  }
}

// Runs `search` and the oracle on the same triple at threads = 1 under a
// fresh step budget of `max_steps` each: same result, same budget state.
template <typename Result>
void ExpectSameUnderStepBudget(
    const SearchTriple& t, std::uint64_t max_steps,
    Result (*search)(const ViewSet&, const Query&, const Schema&,
                     const EnumerationOptions&),
    Result (*oracle)(const ViewSet&, const Query&, const Schema&,
                     const EnumerationOptions&)) {
  guard::Budget oracle_budget(guard::BudgetSpec{.max_steps = max_steps});
  guard::Budget budget(guard::BudgetSpec{.max_steps = max_steps});
  EnumerationOptions options = t.options;
  options.budget = &oracle_budget;
  Result expected = oracle(t.views, t.q, t.base, options);
  options.budget = &budget;
  Result got = search(t.views, t.q, t.base, options);
  ExpectMatchesOracle(expected, got);
  EXPECT_EQ(budget.steps_used(), oracle_budget.steps_used());
  EXPECT_EQ(budget.stop_reason(), oracle_budget.stop_reason());
}

// Same, with an allocation fault armed at the `at`-th "search.instances"
// probe of each run (budgeted, so the internal-error mark shows too).
template <typename Result>
void ExpectSameUnderAllocFault(
    const SearchTriple& t, std::uint64_t at,
    Result (*search)(const ViewSet&, const Query&, const Schema&,
                     const EnumerationOptions&),
    Result (*oracle)(const ViewSet&, const Query&, const Schema&,
                     const EnumerationOptions&)) {
  guard::Budget oracle_budget;
  guard::Budget budget;
  EnumerationOptions options = t.options;
  options.budget = &oracle_budget;
  guard::ArmFault(guard::FaultKind::kAllocFailure, "search.instances", at);
  Result expected = oracle(t.views, t.q, t.base, options);
  const bool oracle_fired = guard::FaultFired();
  guard::DisarmFaults();
  options.budget = &budget;
  guard::ArmFault(guard::FaultKind::kAllocFailure, "search.instances", at);
  Result got = search(t.views, t.q, t.base, options);
  const bool fired = guard::FaultFired();
  guard::DisarmFaults();
  EXPECT_EQ(fired, oracle_fired);
  ExpectMatchesOracle(expected, got);
  EXPECT_EQ(budget.steps_used(), oracle_budget.steps_used());
  EXPECT_EQ(budget.stop_reason(), oracle_budget.stop_reason());
}

class SearchOracleDifferential
    : public ::testing::TestWithParam<std::uint64_t> {};

INSTANTIATE_TEST_SUITE_P(Seeds, SearchOracleDifferential,
                         ::testing::Range<std::uint64_t>(1, 201));

TEST_P(SearchOracleDifferential, UngovernedMatchesOracleAtAllThreadCounts) {
  SearchTriple t = MakeTriple(GetParam());
  DeterminacySearchResult expected =
      oracle::SearchDeterminacyCounterexample(t.views, t.q, t.base, t.options);
  for (int threads : {1, 2, 8}) {
    SCOPED_TRACE(::testing::Message()
                 << "seed " << GetParam() << " threads " << threads);
    EnumerationOptions options = t.options;
    options.threads = threads;
    ExpectMatchesOracle(expected, SearchDeterminacyCounterexample(
                                      t.views, t.q, t.base, options));
  }
}

TEST_P(SearchOracleDifferential, StepBudgetMatchesOracle) {
  SearchTriple t = MakeTriple(GetParam());
  Rng rng(GetParam() * 7919);
  const std::uint64_t max_steps = 1 + rng.Below(80);
  SCOPED_TRACE(::testing::Message()
               << "seed " << GetParam() << " max_steps " << max_steps);
  ExpectSameUnderStepBudget<DeterminacySearchResult>(
      t, max_steps, &SearchDeterminacyCounterexample,
      &oracle::SearchDeterminacyCounterexample);
}

TEST_P(SearchOracleDifferential, AllocFaultMatchesOracle) {
  SearchTriple t = MakeTriple(GetParam());
  Rng rng(GetParam() * 104729);
  const std::uint64_t at = 1 + rng.Below(80);
  SCOPED_TRACE(::testing::Message() << "seed " << GetParam() << " at " << at);
  ExpectSameUnderAllocFault<DeterminacySearchResult>(
      t, at, &SearchDeterminacyCounterexample,
      &oracle::SearchDeterminacyCounterexample);
}

class MonotonicityOracleDifferential
    : public ::testing::TestWithParam<std::uint64_t> {};

INSTANTIATE_TEST_SUITE_P(Seeds, MonotonicityOracleDifferential,
                         ::testing::Range<std::uint64_t>(1, 41));

TEST_P(MonotonicityOracleDifferential,
       UngovernedMatchesOracleAtAllThreadCounts) {
  SearchTriple t = MakeTriple(GetParam());
  MonotonicitySearchResult expected =
      oracle::SearchMonotonicityViolation(t.views, t.q, t.base, t.options);
  for (int threads : {1, 2, 8}) {
    SCOPED_TRACE(::testing::Message()
                 << "seed " << GetParam() << " threads " << threads);
    EnumerationOptions options = t.options;
    options.threads = threads;
    ExpectMatchesOracle(expected, SearchMonotonicityViolation(
                                      t.views, t.q, t.base, options));
  }
}

// Up to 64 instance steps plus 64 row steps: the budget lands in either
// phase or not at all.
TEST_P(MonotonicityOracleDifferential, StepBudgetMatchesOracle) {
  SearchTriple t = MakeTriple(GetParam());
  Rng rng(GetParam() * 7919);
  const std::uint64_t max_steps = 1 + rng.Below(150);
  SCOPED_TRACE(::testing::Message()
               << "seed " << GetParam() << " max_steps " << max_steps);
  ExpectSameUnderStepBudget<MonotonicitySearchResult>(
      t, max_steps, &SearchMonotonicityViolation,
      &oracle::SearchMonotonicityViolation);
}

TEST_P(MonotonicityOracleDifferential, AllocFaultMatchesOracle) {
  SearchTriple t = MakeTriple(GetParam());
  Rng rng(GetParam() * 104729);
  const std::uint64_t at = 1 + rng.Below(80);
  SCOPED_TRACE(::testing::Message() << "seed " << GetParam() << " at " << at);
  ExpectSameUnderAllocFault<MonotonicitySearchResult>(
      t, at, &SearchMonotonicityViolation,
      &oracle::SearchMonotonicityViolation);
}

// A workload with a *known* counterexample: the projection view family.
// Both engines must report the same first refuting pair on it.
TEST(SearchDifferentialFixed, ProjectionViewFirstCounterexampleAgrees) {
  Schema base{{"E", 2}};
  ViewSet views;
  {
    ConjunctiveQuery v("V", {Term::Var("x")});
    Atom a;
    a.predicate = "E";
    a.args = {Term::Var("x"), Term::Var("y")};
    v.AddAtom(a);
    views.Add("V", Query::FromCq(v));
  }
  ConjunctiveQuery q("Q", {Term::Var("x"), Term::Var("y")});
  Atom a;
  a.predicate = "E";
  a.args = {Term::Var("x"), Term::Var("y")};
  q.AddAtom(a);

  EnumerationOptions options;
  options.domain_size = 3;  // 512 instances
  DeterminacySearchResult serial = SearchDeterminacyCounterexample(
      views, Query::FromCq(q), base, options);
  ASSERT_EQ(serial.verdict, SearchVerdict::kCounterexampleFound);
  for (int threads : {2, 8}) {
    EnumerationOptions par_options = options;
    par_options.threads = threads;
    DeterminacySearchResult par = SearchDeterminacyCounterexample(
        views, Query::FromCq(q), base, par_options);
    ExpectSameSearch(serial, par, threads, 0);
  }
}

}  // namespace
}  // namespace vqdr
