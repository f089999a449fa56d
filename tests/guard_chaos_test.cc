// Chaos battery for the guard subsystem (ctest label GUARD): every fault
// kind — injected allocation failure, task-throw inside a search chunk,
// cancellation at exactly step N — fired at randomized-but-seeded steps
// into search (at thread counts {1, 2, 8}), chase, containment and the
// determinacy decision (the served batch under fire is in
// svc_chaos_test.cc).
// Every scenario must end in a clean structured outcome: no crash, no
// deadlock, every chunk run, no wrong or fabricated verdict, and a
// budget-exhausted prefix identical to the same prefix of an unbudgeted
// serial run.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "base/rng.h"
#include "chase/chain.h"
#include "core/determinacy.h"
#include "core/finite_search.h"
#include "cq/containment.h"
#include "cq/parser.h"
#include "gen/workloads.h"
#include "guard/budget.h"
#include "guard/fault.h"
#include "par/pool.h"

namespace vqdr {
namespace {

using guard::Budget;
using guard::BudgetSpec;
using guard::FaultKind;
using guard::Outcome;

const int kThreadCounts[] = {1, 2, 8};

/// RAII disarm so a failing assertion cannot leak an armed fault into the
/// next scenario.
struct FaultScope {
  FaultScope(FaultKind kind, const char* site, std::uint64_t at_hit) {
    guard::ArmFault(kind, site, at_hit);
  }
  ~FaultScope() { guard::DisarmFaults(); }
};

class GuardChaosFixture : public ::testing::Test {
 protected:
  void TearDown() override { guard::DisarmFaults(); }

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

// --- the chunk cursor itself ----------------------------------------------

TEST_F(GuardChaosFixture, PoolCapturesTaskThrowAndKeepsDraining) {
  for (int threads : kThreadCounts) {
    FaultScope fault(FaultKind::kTaskThrow, "pool.task", /*at_hit=*/3);
    std::atomic<int> ran{0};
    std::exception_ptr error;
    const std::uint64_t errors = par::ParallelForChunks(
        threads, 50, [&ran](std::uint64_t) { ran.fetch_add(1); }, &error);
    // Exactly one chunk was killed by the injected throw; every other chunk
    // still ran — the call drained instead of terminating.
    EXPECT_EQ(errors, 1u) << "threads=" << threads;
    EXPECT_EQ(ran.load(), 49) << "threads=" << threads;
    ASSERT_TRUE(error != nullptr);
    EXPECT_THROW(std::rethrow_exception(error), guard::InjectedTaskError);
    EXPECT_TRUE(guard::FaultFired());
  }
}

// --- search under fire -----------------------------------------------------

TEST_F(GuardChaosFixture, SearchSurvivesAllocFailureAtSeededSteps) {
  ViewSet views = PathViews(2);
  Query q = Query::FromCq(ChainQuery(3));
  Schema base{{"E", 2}};
  Rng rng(0x5EAF00D);

  for (int threads : kThreadCounts) {
    for (int round = 0; round < 3; ++round) {
      std::uint64_t at = 1 + rng.Below(40);
      FaultScope fault(FaultKind::kAllocFailure, "search.instances", at);
      Budget budget;
      EnumerationOptions options;
      options.domain_size = 3;  // 512 instances: the fault always lands
      options.threads = threads;
      options.budget = &budget;
      DeterminacySearchResult result =
          SearchDeterminacyCounterexample(views, q, base, options);
      EXPECT_TRUE(guard::FaultFired())
          << "threads=" << threads << " at=" << at;
      EXPECT_EQ(result.outcome, Outcome::kInternalError)
          << "threads=" << threads << " at=" << at;
      EXPECT_EQ(result.verdict, SearchVerdict::kBudgetExhausted);
      EXPECT_FALSE(result.counterexample.has_value());
      EXPECT_EQ(budget.stop_reason(), Outcome::kInternalError);
    }
  }
}

TEST_F(GuardChaosFixture, SearchSurvivesTaskThrowInParallelWorkers) {
  ViewSet views = PathViews(2);
  Query q = Query::FromCq(ChainQuery(3));
  Schema base{{"E", 2}};
  Rng rng(0xC0FFEE);

  for (int threads : kThreadCounts) {
    if (threads == 1) continue;  // one chunk, one probe: at > 1 never fires
    std::uint64_t at = 1 + rng.Below(4);
    FaultScope fault(FaultKind::kTaskThrow, "pool.task", at);
    Budget budget;
    EnumerationOptions options;
    options.domain_size = 3;
    options.threads = threads;
    options.budget = &budget;
    DeterminacySearchResult result =
        SearchDeterminacyCounterexample(views, q, base, options);
    EXPECT_TRUE(guard::FaultFired()) << "threads=" << threads;
    EXPECT_EQ(result.outcome, Outcome::kInternalError) << "threads=" << threads;
    EXPECT_EQ(result.verdict, SearchVerdict::kBudgetExhausted);
  }
}

TEST_F(GuardChaosFixture, SearchCancelledAtExactStepStopsCleanly) {
  ViewSet views = PathViews(2);
  Query q = Query::FromCq(ChainQuery(3));
  Schema base{{"E", 2}};
  Rng rng(0xCA11);

  for (int threads : kThreadCounts) {
    std::uint64_t at = 1 + rng.Below(100);
    FaultScope fault(FaultKind::kCancel, nullptr, at);
    Budget budget;
    EnumerationOptions options;
    options.domain_size = 3;
    options.threads = threads;
    options.budget = &budget;
    DeterminacySearchResult result =
        SearchDeterminacyCounterexample(views, q, base, options);
    EXPECT_TRUE(guard::FaultFired()) << "threads=" << threads << " at=" << at;
    EXPECT_EQ(result.outcome, Outcome::kCancelled)
        << "threads=" << threads << " at=" << at;
    EXPECT_EQ(result.verdict, SearchVerdict::kBudgetExhausted);
    EXPECT_GE(budget.steps_used(), at);
  }
}

TEST_F(GuardChaosFixture, BudgetExhaustedPrefixMatchesUnbudgetedSerialRun) {
  // The honesty contract: a budget-stopped serial search examined exactly a
  // prefix of the canonical enumeration order, so re-running unbudgeted
  // over that same prefix (via max_instances) reproduces it byte for byte —
  // same count, same (absent) counterexample, same verdict class.
  ViewSet views = CqViews({"V(x) :- E(x, y)"});
  Query q = Query::FromCq(Cq("Q(x, y) :- E(x, y)"));
  Schema base{{"E", 2}};
  Rng rng(0xBEEF);

  for (int round = 0; round < 5; ++round) {
    std::uint64_t max_steps = 1 + rng.Below(12);
    Budget budget(BudgetSpec{.max_steps = max_steps});
    EnumerationOptions governed;
    governed.domain_size = 2;
    governed.budget = &budget;
    DeterminacySearchResult stopped =
        SearchDeterminacyCounterexample(views, q, base, governed);

    EnumerationOptions replay;
    replay.domain_size = 2;
    replay.max_instances = stopped.instances_examined;
    DeterminacySearchResult reference =
        SearchDeterminacyCounterexample(views, q, base, replay);

    EXPECT_EQ(stopped.instances_examined, reference.instances_examined)
        << "max_steps=" << max_steps;
    ASSERT_EQ(stopped.counterexample.has_value(),
              reference.counterexample.has_value());
    if (stopped.counterexample.has_value()) {
      // Found before the budget tripped: identical pair, definitive verdict.
      EXPECT_EQ(stopped.counterexample->d1, reference.counterexample->d1);
      EXPECT_EQ(stopped.counterexample->d2, reference.counterexample->d2);
      EXPECT_EQ(stopped.verdict, SearchVerdict::kCounterexampleFound);
      EXPECT_EQ(reference.verdict, SearchVerdict::kCounterexampleFound);
    } else {
      EXPECT_EQ(stopped.verdict, SearchVerdict::kBudgetExhausted);
    }
  }
}

// --- chase under fire ------------------------------------------------------

TEST_F(GuardChaosFixture, ChaseSurvivesAllocFailureWithWholeLevels) {
  ViewSet views = CqViews({"P2(x, y) :- E(x, z), E(z, y)",
                           "P3(x, y) :- E(x, a), E(a, b), E(b, y)"});
  ConjunctiveQuery q = Cq("Q(x, y) :- E(x, a), E(a, b), E(b, c), E(c, y)");

  ValueFactory clean_factory;
  ChaseChain clean = BuildChaseChain(views, q, /*levels=*/2, clean_factory);
  ASSERT_EQ(clean.outcome, Outcome::kComplete);

  Rng rng(0xC4A5E);
  for (int round = 0; round < 4; ++round) {
    std::uint64_t at = 1 + rng.Below(10);
    FaultScope fault(FaultKind::kAllocFailure, "chase.view_inverse", at);
    Budget budget;
    ChaseChainOptions options;
    options.levels = 2;
    options.budget = &budget;
    ValueFactory factory;
    ChaseChain chain = BuildChaseChain(views, q, options, factory);
    EXPECT_TRUE(guard::FaultFired()) << "at=" << at;
    EXPECT_EQ(chain.outcome, Outcome::kInternalError) << "at=" << at;
    // Levels are only appended whole, and every kept level is exact.
    ASSERT_LE(chain.d.size(), clean.d.size());
    for (std::size_t k = 0; k < chain.d.size(); ++k) {
      EXPECT_EQ(chain.d[k], clean.d[k]) << "at=" << at << " level " << k;
      EXPECT_EQ(chain.d_prime[k], clean.d_prime[k])
          << "at=" << at << " level " << k;
    }
  }
}

// --- containment under fire ------------------------------------------------

TEST_F(GuardChaosFixture, ContainmentSurvivesAllocFailureInPatternSweep) {
  ConjunctiveQuery q1 = Cq(
      "Q(a, b, c, d, e) :- R(a, b), R(b, c), R(c, d), R(d, e), a != e");
  ConjunctiveQuery q2 = Cq("Q(a, b, c, d, e) :- R(a, b), R(b, c), R(d, e)");
  Rng rng(0x9A77E59);

  std::uint64_t at = 1 + rng.Below(8);
  FaultScope fault(FaultKind::kAllocFailure, "cq.pattern", at);
  Budget budget;
  CqContainmentOptions options;
  options.budget = &budget;
  ContainmentResult result = CqContainedInGoverned(q1, q2, options);
  EXPECT_TRUE(guard::FaultFired()) << "at=" << at;
  EXPECT_EQ(result.outcome, Outcome::kInternalError) << "at=" << at;
  // The sweep never completed, so the (true) verdict is only "no witness so
  // far" — the definitive false verdict must never appear, because q1 ⊆ q2
  // really does hold.
  EXPECT_TRUE(result.contained);
}

TEST_F(GuardChaosFixture, ContainmentCancelAtStepStopsSweep) {
  ConjunctiveQuery q1 = Cq(
      "Q(a, b, c, d, e) :- R(a, b), R(b, c), R(c, d), R(d, e), a != e");
  ConjunctiveQuery q2 = Cq("Q(a, b, c, d, e) :- R(a, b), R(b, c), R(d, e)");

  FaultScope fault(FaultKind::kCancel, nullptr, /*at_hit=*/3);
  Budget budget;
  CqContainmentOptions options;
  options.budget = &budget;
  ContainmentResult result = CqContainedInGoverned(q1, q2, options);
  EXPECT_TRUE(guard::FaultFired());
  EXPECT_EQ(result.outcome, Outcome::kCancelled);
}

// --- determinacy decision under fire ---------------------------------------

TEST_F(GuardChaosFixture, DeterminacyDecisionSurvivesChaseAllocFailure) {
  ViewSet views = CqViews({"P1(x, y) :- E(x, y)",
                           "P2(x, y) :- E(x, z), E(z, y)"});
  ConjunctiveQuery q = Cq("Q(x, y) :- E(x, a), E(a, b), E(b, y)");
  ASSERT_TRUE(DecideUnrestrictedDeterminacy(views, q).determined);

  FaultScope fault(FaultKind::kAllocFailure, "chase.view_inverse",
                   /*at_hit=*/2);
  Budget budget;
  UnrestrictedDeterminacyResult result =
      DecideUnrestrictedDeterminacy(views, q, &budget);
  EXPECT_TRUE(guard::FaultFired());
  EXPECT_EQ(result.outcome, Outcome::kInternalError);
  // The decision could not finish: no fabricated positive.
  EXPECT_FALSE(result.determined);
  EXPECT_FALSE(result.canonical_rewriting.has_value());
}

}  // namespace
}  // namespace vqdr
