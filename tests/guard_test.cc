// Tests for the guard subsystem: Budget limit semantics (steps, atoms,
// wall-clock deadline, chase levels), the Outcome lattice and its Status
// mapping, and graceful degradation of every governed engine entry point —
// chase chain, finite searches, containment, determinacy, report. The
// served batch's shared envelope is tested in svc_test.cc.
// Budget-stopped runs must return an honest prefix of work and never a
// fabricated verdict.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "chase/chain.h"
#include "core/determinacy.h"
#include "core/finite_search.h"
#include "core/report.h"
#include "cq/containment.h"
#include "cq/parser.h"
#include "gen/workloads.h"
#include "guard/budget.h"
#include "guard/outcome.h"

namespace vqdr {
namespace {

using guard::Budget;
using guard::BudgetSpec;
using guard::Outcome;

// --- Budget unit semantics -------------------------------------------------

TEST(GuardBudget, DefaultBudgetNeverStops) {
  Budget budget;
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(budget.Checkpoint(), Outcome::kComplete);
  }
  EXPECT_EQ(budget.NoteAtoms(1'000'000), Outcome::kComplete);
  EXPECT_FALSE(budget.Stopped());
  EXPECT_EQ(budget.stop_reason(), Outcome::kComplete);
  EXPECT_EQ(budget.steps_used(), 1000u);
}

TEST(GuardBudget, StepBudgetTripsAndSticks) {
  Budget budget(BudgetSpec{.max_steps = 10});
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(budget.Checkpoint(), Outcome::kComplete) << "step " << i;
  }
  EXPECT_EQ(budget.Checkpoint(), Outcome::kStepBudgetExhausted);
  EXPECT_TRUE(budget.Stopped());
  // Sticky: later checkpoints keep reporting the same reason.
  EXPECT_EQ(budget.Checkpoint(), Outcome::kStepBudgetExhausted);
  EXPECT_EQ(budget.stop_reason(), Outcome::kStepBudgetExhausted);
}

TEST(GuardBudget, BulkStepsChargeAtOnce) {
  Budget budget(BudgetSpec{.max_steps = 100});
  EXPECT_EQ(budget.Checkpoint(64), Outcome::kComplete);
  EXPECT_EQ(budget.Checkpoint(64), Outcome::kStepBudgetExhausted);
  EXPECT_EQ(budget.steps_used(), 128u);
}

TEST(GuardBudget, AtomBudgetTrips) {
  Budget budget(BudgetSpec{.max_atoms = 50});
  EXPECT_EQ(budget.NoteAtoms(30), Outcome::kComplete);
  EXPECT_EQ(budget.NoteAtoms(30), Outcome::kMemoryBudgetExhausted);
  EXPECT_EQ(budget.stop_reason(), Outcome::kMemoryBudgetExhausted);
  EXPECT_EQ(budget.atoms_used(), 60u);
}

TEST(GuardBudget, DeadlineTripsPromptly) {
  // An already-expired deadline must trip within one clock stride of
  // checkpoints, never run unbounded.
  Budget budget(BudgetSpec{.wall_ms = 0});
  Outcome last = Outcome::kComplete;
  std::uint64_t polls = 0;
  while (guard::IsComplete(last) && polls < 10 * Budget::kClockStride) {
    last = budget.Checkpoint();
    ++polls;
  }
  EXPECT_EQ(last, Outcome::kDeadlineExceeded);
  EXPECT_LE(polls, 2 * Budget::kClockStride);
}

TEST(GuardBudget, DeadlineBeyondClockRangeIsClamped) {
  // now() + wall_ms past the steady clock's range would wrap into the past
  // and trip kDeadlineExceeded at the first clock read; the deadline is
  // clamped at kMaxWaitMs instead, still far away.
  for (std::int64_t wall_ms : {std::int64_t{9223372036854},
                               std::numeric_limits<std::int64_t>::max()}) {
    Budget budget(BudgetSpec{.wall_ms = wall_ms});
    EXPECT_EQ(budget.Checkpoint(Budget::kClockStride), Outcome::kComplete)
        << wall_ms;  // one full stride: the clock is read
    EXPECT_FALSE(budget.Stopped()) << wall_ms;
  }
}

TEST(GuardBudget, CancelIsSticky) {
  Budget budget;
  budget.Cancel();
  EXPECT_TRUE(budget.Stopped());
  EXPECT_EQ(budget.stop_reason(), Outcome::kCancelled);
  EXPECT_EQ(budget.Checkpoint(), Outcome::kCancelled);
}

TEST(GuardBudget, InternalErrorOutranksEveryOtherStop) {
  Budget budget(BudgetSpec{.max_steps = 1});
  EXPECT_EQ(budget.Checkpoint(5), Outcome::kStepBudgetExhausted);
  budget.MarkInternalError();
  EXPECT_EQ(budget.stop_reason(), Outcome::kInternalError);
  // But nothing outranks an internal error once recorded.
  budget.Cancel();
  EXPECT_EQ(budget.stop_reason(), Outcome::kInternalError);
}

TEST(GuardBudget, FirstSoftStopWins) {
  Budget budget;
  budget.Cancel();
  Budget step_budget(BudgetSpec{.max_steps = 1});
  step_budget.Checkpoint(2);
  // A later, different soft reason does not overwrite the first.
  step_budget.Cancel();
  EXPECT_EQ(step_budget.stop_reason(), Outcome::kStepBudgetExhausted);
}

TEST(GuardBudget, AllowsChaseLevelHonoursSpec) {
  Budget unlimited;
  EXPECT_TRUE(unlimited.AllowsChaseLevel(1'000'000));
  Budget capped(BudgetSpec{.max_chase_levels = 2});
  EXPECT_TRUE(capped.AllowsChaseLevel(1));
  EXPECT_TRUE(capped.AllowsChaseLevel(2));
  EXPECT_FALSE(capped.AllowsChaseLevel(3));
}

TEST(GuardBudget, NullTolerantHelpers) {
  EXPECT_EQ(guard::Check(nullptr), Outcome::kComplete);
  EXPECT_EQ(guard::Check(nullptr, 1'000'000), Outcome::kComplete);
  EXPECT_EQ(guard::CheckAtoms(nullptr, 1'000'000), Outcome::kComplete);
  EXPECT_EQ(guard::StopReason(nullptr), Outcome::kComplete);
}

// --- Outcome lattice -------------------------------------------------------

TEST(GuardOutcome, MergeIsMaxBySeverity) {
  using guard::MergeOutcome;
  EXPECT_EQ(MergeOutcome(Outcome::kComplete, Outcome::kComplete),
            Outcome::kComplete);
  EXPECT_EQ(MergeOutcome(Outcome::kComplete, Outcome::kDeadlineExceeded),
            Outcome::kDeadlineExceeded);
  EXPECT_EQ(
      MergeOutcome(Outcome::kStepBudgetExhausted, Outcome::kDeadlineExceeded),
      Outcome::kStepBudgetExhausted);
  EXPECT_EQ(MergeOutcome(Outcome::kCancelled, Outcome::kInternalError),
            Outcome::kInternalError);
}

TEST(GuardOutcome, NamesAreStable) {
  EXPECT_STREQ(guard::OutcomeName(Outcome::kComplete), "COMPLETE");
  EXPECT_STREQ(guard::OutcomeName(Outcome::kDeadlineExceeded),
               "DEADLINE_EXCEEDED");
  EXPECT_STREQ(guard::OutcomeName(Outcome::kStepBudgetExhausted),
               "STEP_BUDGET_EXHAUSTED");
  EXPECT_STREQ(guard::OutcomeName(Outcome::kMemoryBudgetExhausted),
               "MEMORY_BUDGET_EXHAUSTED");
  EXPECT_STREQ(guard::OutcomeName(Outcome::kCancelled), "CANCELLED");
  EXPECT_STREQ(guard::OutcomeName(Outcome::kInternalError), "INTERNAL_ERROR");
}

TEST(GuardOutcome, StatusMappingDistinguishesExhaustionFromMisuse) {
  EXPECT_TRUE(guard::OutcomeToStatus(Outcome::kComplete, "x").ok());
  EXPECT_EQ(guard::OutcomeToStatus(Outcome::kDeadlineExceeded, "x").code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(guard::OutcomeToStatus(Outcome::kStepBudgetExhausted, "x").code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(guard::OutcomeToStatus(Outcome::kMemoryBudgetExhausted, "x").code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(guard::OutcomeToStatus(Outcome::kCancelled, "x").code(),
            StatusCode::kCancelled);
  EXPECT_EQ(guard::OutcomeToStatus(Outcome::kInternalError, "x").code(),
            StatusCode::kInternal);
}

// --- governed engines ------------------------------------------------------

class GuardEngineFixture : public ::testing::Test {
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

TEST_F(GuardEngineFixture, SearchStepBudgetReturnsHonestPrefix) {
  ViewSet views = PathViews(2);
  Query q = Query::FromCq(ChainQuery(3));
  Schema base{{"E", 2}};

  Budget budget(BudgetSpec{.max_steps = 5});
  EnumerationOptions options;
  options.domain_size = 3;  // 2^9 instances: far beyond the budget
  options.budget = &budget;
  DeterminacySearchResult result =
      SearchDeterminacyCounterexample(views, q, base, options);
  EXPECT_EQ(result.verdict, SearchVerdict::kBudgetExhausted);
  EXPECT_EQ(result.outcome, Outcome::kStepBudgetExhausted);
  EXPECT_FALSE(result.counterexample.has_value());
  // The examined prefix is honest: at most the allowed steps (+1 for the
  // instance whose checkpoint tripped).
  EXPECT_LE(result.instances_examined, 6u);
}

TEST_F(GuardEngineFixture, DeadlineFiresWithin100msOnHostileInput) {
  // Acceptance criterion: a 2^25-instance space at domain size 5 would run
  // for ages; a 50 ms deadline must stop it within 100 ms of the limit.
  ViewSet views = PathViews(2);
  Query q = Query::FromCq(ChainQuery(3));
  Schema base{{"E", 2}};

  Budget budget(BudgetSpec{.wall_ms = 50});
  EnumerationOptions options;
  options.domain_size = 5;
  options.max_instances = 1ull << 40;
  options.budget = &budget;
  auto start = std::chrono::steady_clock::now();
  DeterminacySearchResult result =
      SearchDeterminacyCounterexample(views, q, base, options);
  auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                     std::chrono::steady_clock::now() - start)
                     .count();
  EXPECT_EQ(result.verdict, SearchVerdict::kBudgetExhausted);
  EXPECT_EQ(result.outcome, Outcome::kDeadlineExceeded);
  EXPECT_LE(elapsed, 150) << "deadline overshot by " << (elapsed - 50)
                          << " ms";
}

TEST_F(GuardEngineFixture, MonotonicitySearchHonoursBudget) {
  ViewSet views = PathViews(2);
  Query q = Query::FromCq(ChainQuery(2));
  Schema base{{"E", 2}};

  Budget budget(BudgetSpec{.max_steps = 3});
  EnumerationOptions options;
  options.domain_size = 2;
  options.budget = &budget;
  MonotonicitySearchResult result =
      SearchMonotonicityViolation(views, q, base, options);
  EXPECT_EQ(result.verdict, SearchVerdict::kBudgetExhausted);
  EXPECT_EQ(result.outcome, Outcome::kStepBudgetExhausted);
}

TEST_F(GuardEngineFixture, ChaseLevelCapTruncatesAtLevelBoundary) {
  // P4 over {P2, P3}: the chase-back actually materializes facts, so the
  // levels are non-trivial and the prefix comparison is meaningful.
  ViewSet views = CqViews({"P2(x, y) :- E(x, z), E(z, y)",
                           "P3(x, y) :- E(x, a), E(a, b), E(b, y)"});
  ConjunctiveQuery q = Cq("Q(x, y) :- E(x, a), E(a, b), E(b, c), E(c, y)");

  ValueFactory unbounded_factory;
  ChaseChain full = BuildChaseChain(views, q, /*levels=*/3, unbounded_factory);
  ASSERT_EQ(full.d.size(), 4u);
  EXPECT_EQ(full.outcome, Outcome::kComplete);

  Budget budget(BudgetSpec{.max_chase_levels = 1});
  ChaseChainOptions options;
  options.levels = 3;
  options.budget = &budget;
  ValueFactory capped_factory;
  ChaseChain capped = BuildChaseChain(views, q, options, capped_factory);
  ASSERT_EQ(capped.d.size(), 2u);  // levels 0 and 1 only
  EXPECT_EQ(capped.outcome, Outcome::kStepBudgetExhausted);
  // Levels are only appended whole, so the prefix matches the full chain.
  for (std::size_t k = 0; k < capped.d.size(); ++k) {
    EXPECT_EQ(capped.d[k], full.d[k]) << "level " << k;
    EXPECT_EQ(capped.d_prime[k], full.d_prime[k]) << "level " << k;
  }
}

TEST_F(GuardEngineFixture, ChaseAtomBudgetStopsWithWholeLevels) {
  ViewSet views = CqViews({"P2(x, y) :- E(x, z), E(z, y)",
                           "P3(x, y) :- E(x, a), E(a, b), E(b, y)"});
  ConjunctiveQuery q = Cq("Q(x, y) :- E(x, a), E(a, b), E(b, c), E(c, y)");

  Budget budget(BudgetSpec{.max_atoms = 10});
  ChaseChainOptions options;
  options.levels = 3;
  options.budget = &budget;
  ValueFactory factory;
  ChaseChain chain = BuildChaseChain(views, q, options, factory);
  EXPECT_EQ(chain.outcome, Outcome::kMemoryBudgetExhausted);
  EXPECT_LT(chain.d.size(), 4u);
  // Whatever was kept is exact: sizes of the parallel sequences agree.
  EXPECT_EQ(chain.d.size(), chain.s.size());
  EXPECT_EQ(chain.d.size(), chain.s_prime.size());
  EXPECT_EQ(chain.d.size(), chain.d_prime.size());
}

TEST_F(GuardEngineFixture, GovernedDeterminacyNeverFabricatesAVerdict) {
  ViewSet views = CqViews({"V(x, y) :- E(x, y)"});
  ConjunctiveQuery q = Cq("Q(x, y) :- E(x, z), E(z, y)");
  // Ungoverned: determined.
  ASSERT_TRUE(DecideUnrestrictedDeterminacy(views, q).determined);

  // One chase step is nowhere near enough; the governed call must report
  // the stop instead of claiming either verdict.
  Budget budget(BudgetSpec{.max_steps = 1});
  UnrestrictedDeterminacyResult result =
      DecideUnrestrictedDeterminacy(views, q, &budget);
  EXPECT_EQ(result.outcome, Outcome::kStepBudgetExhausted);
  EXPECT_FALSE(result.determined);
  EXPECT_FALSE(result.canonical_rewriting.has_value());
}

TEST_F(GuardEngineFixture, GovernedDeterminacyCompleteMatchesUngoverned) {
  ViewSet views = CqViews({"P1(x, y) :- E(x, y)",
                           "P2(x, y) :- E(x, z), E(z, y)"});
  ConjunctiveQuery q = Cq("Q(x, y) :- E(x, a), E(a, b), E(b, y)");
  Budget budget;  // unlimited
  UnrestrictedDeterminacyResult governed =
      DecideUnrestrictedDeterminacy(views, q, &budget);
  UnrestrictedDeterminacyResult plain = DecideUnrestrictedDeterminacy(views, q);
  EXPECT_EQ(governed.outcome, Outcome::kComplete);
  EXPECT_EQ(governed.determined, plain.determined);
  EXPECT_EQ(governed.chase_inverse, plain.chase_inverse);
}

TEST_F(GuardEngineFixture, GovernedContainmentBudgetStopsSweep) {
  // Disequalities force the identification-pattern sweep (exponential in
  // variables), so a tiny step budget trips mid-sweep.
  ConjunctiveQuery q1 = Cq(
      "Q(a, b, c, d, e) :- R(a, b), R(b, c), R(c, d), R(d, e), a != e");
  ConjunctiveQuery q2 = Cq("Q(a, b, c, d, e) :- R(a, b), R(b, c), R(d, e)");

  CqContainmentOptions unlimited;
  ContainmentResult full = CqContainedInGoverned(q1, q2, unlimited);
  EXPECT_EQ(full.outcome, Outcome::kComplete);
  EXPECT_TRUE(full.contained);
  ASSERT_GT(full.patterns_checked, 2u);

  Budget budget(BudgetSpec{.max_steps = 2});
  CqContainmentOptions options;
  options.budget = &budget;
  ContainmentResult stopped = CqContainedInGoverned(q1, q2, options);
  EXPECT_EQ(stopped.outcome, Outcome::kStepBudgetExhausted);
  EXPECT_LT(stopped.patterns_checked, full.patterns_checked);
}

TEST_F(GuardEngineFixture, ContainmentWitnessIsDefinitiveUnderBudget) {
  // Non-containment: the witness (first canonical db failing Q2) is found
  // immediately and stays trustworthy whatever the budget says afterwards.
  ConjunctiveQuery q1 = Cq("Q(x, y) :- R(x, y)");
  ConjunctiveQuery q2 = Cq("Q(x, y) :- R(x, y), R(y, x)");
  Budget budget(BudgetSpec{.max_steps = 1000});
  CqContainmentOptions options;
  options.budget = &budget;
  ContainmentResult result = CqContainedInGoverned(q1, q2, options);
  EXPECT_FALSE(result.contained);
}

TEST_F(GuardEngineFixture, GovernedUcqContainmentMergesDisjunctOutcomes) {
  auto u1 = ParseUcq("Q(x) :- A(x) | Q(x) :- B(x)", pool_);
  auto u2 = ParseUcq("Q(x) :- A(x) | Q(x) :- B(x)", pool_);
  ASSERT_TRUE(u1.ok() && u2.ok());
  CqContainmentOptions options;
  ContainmentResult result =
      UcqContainedInGoverned(u1.value(), u2.value(), options);
  EXPECT_TRUE(result.contained);
  EXPECT_EQ(result.outcome, Outcome::kComplete);
}

TEST_F(GuardEngineFixture, ReportPropagatesBudgetOutcome) {
  ViewSet views = CqViews({"V(x, y) :- E(x, y)"});
  ConjunctiveQuery q = Cq("Q(x, y) :- E(x, z), E(z, y)");
  Schema base{{"E", 2}};

  Budget budget(BudgetSpec{.max_steps = 1});
  DeterminacyAnalysisOptions options;
  options.search.budget = &budget;
  options.search.domain_size = 2;
  DeterminacyReport report = AnalyzeDeterminacy(views, q, base, options);
  EXPECT_EQ(report.verdict, DeterminacyVerdict::kOpenWithinBound);
  EXPECT_FALSE(report.searches_exhaustive);
  EXPECT_EQ(report.outcome, Outcome::kStepBudgetExhausted);
  EXPECT_NE(report.Summary().find("STEP_BUDGET_EXHAUSTED"), std::string::npos);
}

TEST_F(GuardEngineFixture, CancelledBudgetStopsEverythingDownstream) {
  ViewSet views = PathViews(2);
  Query q = Query::FromCq(ChainQuery(3));
  Schema base{{"E", 2}};

  Budget budget;
  budget.Cancel();
  EnumerationOptions options;
  options.domain_size = 2;
  options.budget = &budget;
  DeterminacySearchResult result =
      SearchDeterminacyCounterexample(views, q, base, options);
  EXPECT_EQ(result.verdict, SearchVerdict::kBudgetExhausted);
  EXPECT_EQ(result.outcome, Outcome::kCancelled);
  EXPECT_LE(result.instances_examined, 1u);
}

}  // namespace
}  // namespace vqdr
