// Differential battery for the memo subsystem: warm (cached) runs must be
// byte-identical to cold runs across thread counts, repeated warming must be
// stable, and injected faults must never leave a poisoned cache entry
// behind. One shared store serves every warm configuration, so a divergence
// anywhere — a wrong canonical key, a torn install, a replayed factory off
// by one — shows up as a field mismatch against the cold baseline.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "base/rng.h"
#include "chase/chain.h"
#include "core/determinacy.h"
#include "cq/containment.h"
#include "cq/parser.h"
#include "gen/random_query.h"
#include "gen/workloads.h"
#include "guard/budget.h"
#include "guard/fault.h"
#include "memo/memo.h"
#include "memo/store.h"

namespace vqdr {
namespace {

// Field-by-field equality against the cold baseline; `what` labels the
// failing configuration.
void ExpectSameResult(const UnrestrictedDeterminacyResult& got,
                      const UnrestrictedDeterminacyResult& want,
                      const std::string& what) {
  EXPECT_EQ(got.determined, want.determined) << what;
  EXPECT_EQ(got.outcome, want.outcome) << what;
  EXPECT_EQ(got.canonical_view_image, want.canonical_view_image) << what;
  EXPECT_EQ(got.chase_inverse, want.chase_inverse) << what;
  EXPECT_EQ(got.frozen_head, want.frozen_head) << what;
  ASSERT_EQ(got.canonical_rewriting.has_value(),
            want.canonical_rewriting.has_value())
      << what;
  if (want.canonical_rewriting.has_value()) {
    EXPECT_EQ(got.canonical_rewriting->ToString(),
              want.canonical_rewriting->ToString())
        << what;
  }
}

// Runs `call` with the memo off, and with it on against `store`.
template <typename Call>
auto Cold(Call call) {
  memo::ScopedEnable off(false);
  return call();
}
template <typename Call>
auto Warm(memo::Store& store, Call call) {
  memo::ScopedEnable on(true, &store);
  return call();
}

// One (V, Q) pair of the seeded slate.
struct Item {
  ViewSet views;
  ConjunctiveQuery query{"Q", {}};
};

std::vector<Item> SeededItems() {
  std::vector<Item> items;
  RandomCqOptions opts;
  opts.max_atoms = 3;
  opts.variable_pool = 3;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    Item item;
    item.views = RandomCqViews(rng, opts, /*count=*/2);
    item.query = RandomCq(rng, opts);
    items.push_back(item);
  }
  // Duplicate the whole slate so warm runs are guaranteed repeat work: the
  // second half must be pure cache hits of the first.
  std::vector<Item> doubled = items;
  doubled.insert(doubled.end(), items.begin(), items.end());
  return doubled;
}

// Decides `items` on `threads` std::threads at once, each over its own
// contiguous slice, all against the caller's memo scope — the sharing
// vqdr-serve's connection threads do with the process store. With the
// duplicated slate, two threads decide the same items concurrently.
std::vector<UnrestrictedDeterminacyResult> DecideOnThreads(
    const std::vector<Item>& items, int threads) {
  std::vector<UnrestrictedDeterminacyResult> results(items.size());
  std::vector<std::thread> workers;
  for (int t = 0; t < threads; ++t) {
    const std::size_t begin = items.size() * t / threads;
    const std::size_t end = items.size() * (t + 1) / threads;
    workers.emplace_back([&items, &results, begin, end] {
      for (std::size_t i = begin; i < end; ++i) {
        results[i] =
            DecideUnrestrictedDeterminacy(items[i].views, items[i].query);
      }
    });
  }
  for (std::thread& w : workers) w.join();
  return results;
}

TEST(MemoDifferential, BatchDeterminacyColdVsWarmAcrossThreadCounts) {
  std::vector<Item> items = SeededItems();

  // Cold baseline: serial, memo forced off.
  std::vector<UnrestrictedDeterminacyResult> cold = Cold([&] {
    std::vector<UnrestrictedDeterminacyResult> results;
    for (const Item& item : items) {
      results.push_back(DecideUnrestrictedDeterminacy(item.views, item.query));
    }
    return results;
  });
  ASSERT_EQ(cold.size(), items.size());

  // Warm runs share one store across every thread count: entries installed
  // by the serial pass must replay identically under contention.
  memo::Store store(4096);
  memo::ScopedEnable on(true, &store);
  for (int threads : {1, 2, 8}) {
    std::vector<UnrestrictedDeterminacyResult> warm =
        DecideOnThreads(items, threads);
    ASSERT_EQ(warm.size(), cold.size());
    for (std::size_t i = 0; i < cold.size(); ++i) {
      ExpectSameResult(warm[i], cold[i],
                       "threads=" + std::to_string(threads) + " item " +
                           std::to_string(i));
    }
  }
  // Every item was decided or served complete; the duplicated half plus the
  // repeated thread sweeps guarantee real hit traffic.
  EXPECT_GE(store.Stats().hits, items.size());
  EXPECT_GE(store.Stats().installs, 1u);
}

TEST(MemoDifferential, ContainmentMatrixColdVsWarm) {
  // All-pairs containment over a seeded query slate, cold vs warm vs
  // double-warm. The matrix re-checks each ordered pair three times against
  // the same store, so any key collision between non-isomorphic queries
  // would flip at least one warm verdict.
  std::vector<ConjunctiveQuery> slate;
  RandomCqOptions opts;
  opts.max_atoms = 4;
  for (std::uint64_t seed = 41; seed <= 52; ++seed) {
    Rng rng(seed);
    slate.push_back(RandomCq(rng, opts));
  }
  slate.push_back(ChainQuery(2));
  slate.push_back(ChainQuery(3));
  slate.push_back(StarQuery(3));

  memo::Store store(4096);
  std::size_t compared = 0;
  for (int round = 0; round < 2; ++round) {
    for (std::size_t i = 0; i < slate.size(); ++i) {
      for (std::size_t j = 0; j < slate.size(); ++j) {
        // Containment is only defined between equal head arities.
        if (slate[i].head_arity() != slate[j].head_arity()) continue;
        auto check = [&] { return CqContainedIn(slate[i], slate[j]); };
        bool cold = Cold(check);
        bool warm = Warm(store, check);
        EXPECT_EQ(warm, cold)
            << "round " << round << " pair (" << i << "," << j << "): "
            << slate[i].ToString() << " ⊆? " << slate[j].ToString();
        if (round == 1) ++compared;
      }
    }
  }
  EXPECT_GE(store.Stats().hits, compared);  // round 2 is all hits
}

TEST(MemoDifferential, UcqContainmentColdVsWarm) {
  NamePool pool;
  std::vector<UnionQuery> slate;
  RandomCqOptions opts;
  opts.max_atoms = 3;
  for (std::uint64_t seed = 61; seed <= 68; ++seed) {
    Rng rng(seed);
    UnionQuery u;
    u.AddDisjunct(RandomCq(rng, opts));
    u.AddDisjunct(RandomCq(rng, opts));
    slate.push_back(u);
  }

  memo::Store store(1024);
  for (int round = 0; round < 2; ++round) {
    for (std::size_t i = 0; i < slate.size(); ++i) {
      for (std::size_t j = 0; j < slate.size(); ++j) {
        auto check = [&] { return UcqContainedIn(slate[i], slate[j]); };
        bool cold = Cold(check);
        bool warm = Warm(store, check);
        EXPECT_EQ(warm, cold) << "pair (" << i << "," << j << ")";
      }
    }
  }
  EXPECT_GE(store.Stats().hits, slate.size() * slate.size());
}

TEST(MemoDifferential, TinyCapacityThrashStillMatchesCold) {
  // A two-entry store evicts constantly; correctness must not depend on
  // entries surviving. (Perf does — that's the bench's business.)
  std::vector<ConjunctiveQuery> slate = {ChainQuery(2), ChainQuery(3),
                                         ChainQuery(4), StarQuery(2),
                                         CycleQuery(3)};
  memo::Store store(/*capacity=*/2);
  for (int round = 0; round < 3; ++round) {
    for (const ConjunctiveQuery& a : slate) {
      for (const ConjunctiveQuery& b : slate) {
        if (a.head_arity() != b.head_arity()) continue;
        auto check = [&] { return CqContainedIn(a, b); };
        EXPECT_EQ(Warm(store, check), Cold(check))
            << a.ToString() << " ⊆? " << b.ToString();
      }
    }
  }
  EXPECT_GT(store.Stats().evictions, 0u);
}

TEST(MemoChaos, InjectedContainmentFaultInstallsNothing) {
  // The very first pattern check throws (injected allocation failure). The
  // sweep captures it and reports kInternalError — and the memo layer must
  // refuse to install the meaningless verdict.
  ConjunctiveQuery q1 = ChainQuery(3);
  ConjunctiveQuery q2 = ChainQuery(2);

  memo::Store store(64);
  CqContainmentOptions options;
  bool cold = Cold([&] { return CqContainedIn(q1, q2); });
  memo::ScopedEnable on(true, &store);

  guard::ArmFault(guard::FaultKind::kAllocFailure, "cq.pattern", 1);
  ContainmentResult faulted = CqContainedInGoverned(q1, q2, options);
  guard::DisarmFaults();
  EXPECT_EQ(faulted.outcome, guard::Outcome::kInternalError);
  EXPECT_EQ(store.Stats().installs, 0u);
  EXPECT_EQ(store.size(), 0u);

  // With the fault disarmed the same call computes, installs, and matches
  // the ungoverned cold verdict.
  ContainmentResult clean = CqContainedInGoverned(q1, q2, options);
  EXPECT_EQ(clean.outcome, guard::Outcome::kComplete);
  EXPECT_EQ(clean.contained, cold);
  EXPECT_EQ(store.Stats().installs, 1u);

  // And the cached entry serves the true verdict, not the faulted run's.
  ContainmentResult warm = CqContainedInGoverned(q1, q2, options);
  EXPECT_EQ(warm.contained, clean.contained);
  EXPECT_GE(store.Stats().hits, 1u);
}

TEST(MemoChaos, InjectedChaseFaultInstallsNothing) {
  ViewSet views = PathViews(2);
  NamePool pool;
  auto parsed = ParseCq("Q(x) :- E(x, y), E(y, z)", pool);
  ASSERT_TRUE(parsed.ok());
  ConjunctiveQuery q = parsed.value();

  memo::Store store(64);
  memo::ScopedEnable on(true, &store);
  ChaseChainOptions options;
  options.levels = 2;

  guard::ArmFault(guard::FaultKind::kAllocFailure, "chase.view_inverse", 2);
  ValueFactory faulted_factory;
  ChaseChain faulted = BuildChaseChain(views, q, options, faulted_factory);
  guard::DisarmFaults();
  EXPECT_NE(faulted.outcome, guard::Outcome::kComplete);
  EXPECT_EQ(store.Stats().installs, 0u);
  EXPECT_EQ(store.size(), 0u);

  // Clean replay: computes and installs; a second run hits and replays the
  // factory to the same end state.
  ValueFactory f1;
  ChaseChain clean = BuildChaseChain(views, q, options, f1);
  EXPECT_EQ(clean.outcome, guard::Outcome::kComplete);
  // The chain plus the three chase-back steps with distinct keys.
  EXPECT_EQ(store.Stats().installs, 4u);
  ValueFactory f2;
  ChaseChain warm = BuildChaseChain(views, q, options, f2);
  EXPECT_GE(store.Stats().hits, 1u);
  EXPECT_EQ(f1.next_id(), f2.next_id());
  ASSERT_EQ(warm.d.size(), clean.d.size());
  for (std::size_t k = 0; k < clean.d.size(); ++k) {
    EXPECT_EQ(warm.d[k], clean.d[k]);
    EXPECT_EQ(warm.d_prime[k], clean.d_prime[k]);
  }
}

TEST(MemoChaos, BudgetStoppedDeterminacyInstallsNothing) {
  ViewSet views = PathViews(3);
  NamePool pool;
  auto parsed = ParseCq("Q(x, z) :- E(x, y), E(y, z)", pool);
  ASSERT_TRUE(parsed.ok());
  ConjunctiveQuery q = parsed.value();

  memo::Store store(64);
  memo::ScopedEnable on(true, &store);

  // A one-step budget trips almost immediately; the stopped result must not
  // be cached.
  guard::BudgetSpec spec;
  spec.max_steps = 1;
  guard::Budget budget(spec);
  UnrestrictedDeterminacyResult stopped =
      DecideUnrestrictedDeterminacy(views, q, &budget);
  EXPECT_FALSE(guard::IsComplete(stopped.outcome));
  EXPECT_EQ(store.Stats().installs, 0u);

  // Ungoverned run installs the real result and its chase-back; a warm call
  // replays it.
  UnrestrictedDeterminacyResult clean = DecideUnrestrictedDeterminacy(views, q);
  EXPECT_EQ(clean.outcome, guard::Outcome::kComplete);
  EXPECT_EQ(store.Stats().installs, 2u);
  UnrestrictedDeterminacyResult warm = DecideUnrestrictedDeterminacy(views, q);
  ExpectSameResult(warm, clean, "warm determinacy after budget-stopped run");
}

}  // namespace
}  // namespace vqdr
