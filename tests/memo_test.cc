// Unit battery for the memo subsystem: the LRU store itself, the
// canonical CQ/UCQ fingerprints it keys on, and the engine wiring — every
// memoized entry point must return byte-identical results to a cold run,
// hit the cache on the second call, and replay factory state exactly.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "base/rng.h"
#include "chase/chain.h"
#include "chase/view_inverse.h"
#include "core/determinacy.h"
#include "core/report.h"
#include "cq/containment.h"
#include "cq/fingerprint.h"
#include "cq/minimize.h"
#include "cq/parser.h"
#include "gen/random_query.h"
#include "gen/workloads.h"
#include "memo/memo.h"
#include "memo/store.h"

namespace vqdr {
namespace {

ConjunctiveQuery Cq(const std::string& text, NamePool& pool) {
  auto q = ParseCq(text, pool);
  EXPECT_TRUE(q.ok()) << q.status().message();
  return q.value();
}

// Rebuilds q with its atoms in a seeded-random order.
ConjunctiveQuery ShuffleAtoms(const ConjunctiveQuery& q, Rng& rng) {
  std::vector<Atom> atoms = q.atoms();
  for (std::size_t i = atoms.size(); i > 1; --i) {
    std::swap(atoms[i - 1], atoms[rng.Below(i)]);
  }
  ConjunctiveQuery out(q.head_name(), q.head_terms());
  for (const Atom& a : atoms) out.AddAtom(a);
  for (const Atom& a : q.negated_atoms()) out.AddNegatedAtom(a);
  for (const TermComparison& c : q.equalities()) {
    out.AddEquality(c.lhs, c.rhs);
  }
  for (const TermComparison& c : q.disequalities()) {
    out.AddDisequality(c.lhs, c.rhs);
  }
  return out;
}

// --- the store -------------------------------------------------------------

TEST(MemoStore, GetMissThenPutThenHit) {
  memo::Store store(16);
  EXPECT_EQ(store.Get<int>("k"), nullptr);
  store.Put<int>("k", 42);
  auto hit = store.Get<int>("k");
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(*hit, 42);
  memo::StatsSnapshot s = store.Stats();
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.installs, 1u);
  EXPECT_EQ(s.entries, 1u);
}

TEST(MemoStore, WrongTypeIsAMissNeverAReinterpretation) {
  memo::Store store(16);
  store.Put<int>("k", 7);
  EXPECT_EQ(store.Get<double>("k"), nullptr);
  auto still_there = store.Get<int>("k");
  ASSERT_NE(still_there, nullptr);
  EXPECT_EQ(*still_there, 7);
}

TEST(MemoStore, FirstInstallWins) {
  memo::Store store(16);
  store.Put<int>("k", 1);
  store.Put<int>("k", 2);
  auto hit = store.Get<int>("k");
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(*hit, 1);
  EXPECT_EQ(store.Stats().installs, 1u);
}

TEST(MemoStore, LruEvictsLeastRecentlyUsed) {
  memo::Store store(/*capacity=*/2);
  store.Put<int>("a", 1);
  store.Put<int>("b", 2);
  ASSERT_NE(store.Get<int>("a"), nullptr);  // "a" becomes most-recent
  store.Put<int>("c", 3);                   // evicts "b"
  EXPECT_EQ(store.Get<int>("b"), nullptr);
  EXPECT_NE(store.Get<int>("a"), nullptr);
  EXPECT_NE(store.Get<int>("c"), nullptr);
  EXPECT_EQ(store.Stats().evictions, 1u);
  EXPECT_EQ(store.size(), 2u);
}

TEST(MemoStore, EvictedEntriesStayValidThroughSharedPtr) {
  memo::Store store(/*capacity=*/1);
  store.Put<std::string>("a", std::string("payload"));
  auto held = store.Get<std::string>("a");
  store.Put<std::string>("b", std::string("other"));  // evicts "a"
  ASSERT_NE(held, nullptr);
  EXPECT_EQ(*held, "payload");
}

// Whatever the keys hash to, an insert into a full store evicts the entry
// least recently used across the whole store, and only that one.
TEST(MemoStore, EvictsTheStoreWideLeastRecentlyUsedEntry) {
  for (int set = 0; set < 100; ++set) {
    std::vector<std::string> keys;
    for (int i = 0; i < 5; ++i) {
      keys.push_back("set" + std::to_string(set) + "/key" + std::to_string(i));
    }
    memo::Store store(4);
    for (int i = 0; i < 4; ++i) store.Put<int>(keys[i], i);
    ASSERT_NE(store.Get<int>(keys[0]), nullptr);  // keys[1] is now the LRU
    store.Put<int>(keys[4], 4);
    EXPECT_EQ(store.size(), 4u) << "key set " << set;
    EXPECT_EQ(store.Stats().evictions, 1u) << "key set " << set;
    EXPECT_EQ(store.Get<int>(keys[1]), nullptr) << "key set " << set;
    EXPECT_NE(store.Get<int>(keys[0]), nullptr) << "key set " << set;
  }
}

TEST(MemoStore, ClearEmptiesEveryShard) {
  memo::Store store(64);
  for (int i = 0; i < 20; ++i) store.Put<int>("k" + std::to_string(i), i);
  EXPECT_EQ(store.size(), 20u);
  store.Clear();
  EXPECT_EQ(store.size(), 0u);
  EXPECT_EQ(store.Get<int>("k3"), nullptr);
}

TEST(MemoStore, StatsDeltaSubtractsMonotoneFields) {
  memo::Store store(16);
  store.Put<int>("a", 1);
  memo::StatsSnapshot before = store.Stats();
  store.Get<int>("a");
  store.Get<int>("zzz");
  memo::StatsSnapshot delta = store.Stats().Delta(before);
  EXPECT_EQ(delta.hits, 1u);
  EXPECT_EQ(delta.misses, 1u);
  EXPECT_EQ(delta.installs, 0u);
  EXPECT_TRUE(delta.any());
  EXPECT_NE(delta.ToString().find("hits=1"), std::string::npos);
}

TEST(MemoEnable, ScopedEnableRestores) {
  bool was = memo::Enabled();
  memo::Store& process_store = memo::GlobalStore();
  {
    memo::ScopedEnable on(true);
    EXPECT_TRUE(memo::Enabled());
    EXPECT_EQ(&memo::GlobalStore(), &process_store);
  }
  EXPECT_EQ(memo::Enabled(), was);
  memo::Store store(16);
  {
    memo::ScopedEnable on(true, &store);
    EXPECT_TRUE(memo::Enabled());
    EXPECT_EQ(&memo::GlobalStore(), &store);
    {
      // A nested scope without a store keeps the substituted one.
      memo::ScopedEnable off(false);
      EXPECT_FALSE(memo::Enabled());
      EXPECT_EQ(&memo::GlobalStore(), &store);
    }
    EXPECT_TRUE(memo::Enabled());
  }
  EXPECT_EQ(memo::Enabled(), was);
  EXPECT_EQ(&memo::GlobalStore(), &process_store);
}

// --- canonical fingerprints ------------------------------------------------

TEST(Fingerprint, InvariantUnderRenamingShufflingAndHeadName) {
  NamePool pool;
  ConjunctiveQuery q = Cq("Q(x, y) :- E(x, z), E(z, w), E(w, y), P(z)", pool);
  auto fp = CanonicalCqFingerprint(q);
  ASSERT_TRUE(fp.has_value());

  ConjunctiveQuery renamed =
      q.RenameVariables([](const std::string& v) { return "fresh_" + v; });
  renamed.set_head_name("SomethingElse");
  Rng rng(7);
  for (int round = 0; round < 10; ++round) {
    ConjunctiveQuery variant = ShuffleAtoms(renamed, rng);
    EXPECT_EQ(CanonicalCqFingerprint(variant), fp) << variant.ToString();
  }
}

TEST(Fingerprint, SeededRandomIsomorphismInvariance) {
  RandomCqOptions opts;
  opts.max_atoms = 5;
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    Rng rng(seed);
    ConjunctiveQuery q = RandomCq(rng, opts);
    auto fp = CanonicalCqFingerprint(q);
    ASSERT_TRUE(fp.has_value()) << q.ToString();
    ConjunctiveQuery iso =
        ShuffleAtoms(q, rng).RenameVariables(
            [](const std::string& v) { return v + "_r"; });
    EXPECT_EQ(CanonicalCqFingerprint(iso), fp)
        << "seed " << seed << ": " << q.ToString() << " vs "
        << iso.ToString();
  }
}

TEST(Fingerprint, DistinguishesNonIsomorphicQueries) {
  EXPECT_NE(CanonicalCqFingerprint(ChainQuery(3)),
            CanonicalCqFingerprint(ChainQuery(4)));
  EXPECT_NE(CanonicalCqFingerprint(ChainQuery(3)),
            CanonicalCqFingerprint(CycleQuery(3)));
  NamePool pool;
  // Same shape, different constants.
  ConjunctiveQuery a = Cq("Q(x) :- E(x, 'alice')", pool);
  ConjunctiveQuery b = Cq("Q(x) :- E(x, 'bob')", pool);
  EXPECT_NE(CanonicalCqFingerprint(a), CanonicalCqFingerprint(b));
  EXPECT_EQ(CanonicalCqFingerprint(a), CanonicalCqFingerprint(a));
}

TEST(Fingerprint, EqualityPropagationAndDisequalityNormalization) {
  NamePool pool;
  ConjunctiveQuery direct = Cq("Q(x) :- E(x, y), P(y)", pool);
  ConjunctiveQuery via_eq = Cq("Q(x) :- E(x, z), P(y), y = z", pool);
  EXPECT_EQ(CanonicalCqFingerprint(direct), CanonicalCqFingerprint(via_eq));

  ConjunctiveQuery d1 = Cq("Q(x) :- E(x, y), x != y", pool);
  ConjunctiveQuery d2 = Cq("Q(a) :- E(a, b), b != a", pool);
  EXPECT_EQ(CanonicalCqFingerprint(d1), CanonicalCqFingerprint(d2));
  EXPECT_NE(CanonicalCqFingerprint(d1),
            CanonicalCqFingerprint(Cq("Q(x) :- E(x, y)", pool)));
}

TEST(Fingerprint, UnsatisfiableQueriesCollapsePerArity) {
  NamePool pool;
  ConjunctiveQuery u1 = Cq("Q(x) :- E(x, y), x = y, x != y", pool);
  ConjunctiveQuery u2 = Cq("Q(a) :- P(a), a != a", pool);
  auto f1 = CanonicalCqFingerprint(u1);
  auto f2 = CanonicalCqFingerprint(u2);
  ASSERT_TRUE(f1.has_value());
  EXPECT_EQ(f1, f2);
  EXPECT_EQ(*f1, "UNSAT|a1");
}

TEST(Fingerprint, NegationHasNoFingerprint) {
  NamePool pool;
  ConjunctiveQuery q = Cq("Q(x) :- E(x, y), not P(y)", pool);
  EXPECT_FALSE(CanonicalCqFingerprint(q).has_value());
}

TEST(Fingerprint, SymmetricQueriesStayDiscrete) {
  // A 6-cycle is vertex-transitive: refinement alone cannot split it, so
  // this exercises the individualization search.
  ConjunctiveQuery c6 = CycleQuery(6);
  auto fp = CanonicalCqFingerprint(c6);
  ASSERT_TRUE(fp.has_value());
  Rng rng(11);
  ConjunctiveQuery iso = ShuffleAtoms(c6, rng).RenameVariables(
      [](const std::string& v) { return "cyc" + v; });
  EXPECT_EQ(CanonicalCqFingerprint(iso), fp);
}

TEST(Fingerprint, CoreFingerprintQuotientsByEquivalence) {
  // A 3-armed star is equivalent to its 1-atom core; the plain canonical
  // fingerprints differ, the core fingerprints agree.
  ConjunctiveQuery star = StarQuery(3);
  ConjunctiveQuery one = StarQuery(1);
  EXPECT_NE(CanonicalCqFingerprint(star), CanonicalCqFingerprint(one));
  EXPECT_EQ(CoreCqFingerprint(star), CoreCqFingerprint(one));
}

TEST(Fingerprint, UcqInvariantUnderDisjunctOrderAndFalseDisjuncts) {
  NamePool pool;
  UnionQuery u1;
  u1.AddDisjunct(Cq("Q(x) :- E(x, y)", pool));
  u1.AddDisjunct(Cq("Q(x) :- P(x)", pool));
  UnionQuery u2;
  u2.AddDisjunct(Cq("Q(a) :- P(a)", pool));
  u2.AddDisjunct(Cq("Q(a) :- E(a, b)", pool));
  u2.AddDisjunct(Cq("Q(a) :- P(a), a != a", pool));  // false disjunct
  EXPECT_EQ(CanonicalUcqFingerprint(u1), CanonicalUcqFingerprint(u2));
  ASSERT_TRUE(CanonicalUcqFingerprint(u1).has_value());
}

// --- engine wiring ---------------------------------------------------------

TEST(MemoWiring, ContainmentHitsAndMatchesColdVerdict) {
  ConjunctiveQuery q1 = ChainQuery(4);
  ConjunctiveQuery q2 = ChainQuery(3);
  bool cold12 = CqContainedIn(q1, q2);
  bool cold21 = CqContainedIn(q2, q1);

  memo::Store store(256);
  memo::ScopedEnable on(true, &store);
  EXPECT_EQ(CqContainedIn(q1, q2), cold12);
  EXPECT_EQ(CqContainedIn(q2, q1), cold21);
  memo::StatsSnapshot after_first = store.Stats();
  EXPECT_GE(after_first.installs, 2u);

  // Second round: same verdicts, served from the cache.
  EXPECT_EQ(CqContainedIn(q1, q2), cold12);
  EXPECT_EQ(CqContainedIn(q2, q1), cold21);
  memo::StatsSnapshot delta = store.Stats().Delta(after_first);
  EXPECT_GE(delta.hits, 2u);
  EXPECT_EQ(delta.installs, 0u);

  // Isomorphic copies hit the same entries.
  Rng rng(3);
  ConjunctiveQuery iso = ShuffleAtoms(q1, rng).RenameVariables(
      [](const std::string& v) { return v + "x"; });
  memo::StatsSnapshot before_iso = store.Stats();
  EXPECT_EQ(CqContainedIn(iso, q2), cold12);
  EXPECT_GE(store.Stats().Delta(before_iso).hits, 1u);
}

TEST(MemoWiring, GovernedContainmentCachedVerdictIsComplete) {
  memo::Store store(64);
  memo::ScopedEnable on(true, &store);
  ContainmentResult cold =
      CqContainedInGoverned(ChainQuery(3), ChainQuery(5), {});
  ContainmentResult warm =
      CqContainedInGoverned(ChainQuery(3), ChainQuery(5), {});
  EXPECT_EQ(warm.contained, cold.contained);
  EXPECT_EQ(warm.outcome, guard::Outcome::kComplete);
}

TEST(MemoWiring, UcqContainmentHitsAcrossDisjunctOrder) {
  NamePool pool;
  UnionQuery u1;
  u1.AddDisjunct(Cq("Q(x) :- E(x, y)", pool));
  u1.AddDisjunct(Cq("Q(x) :- P(x)", pool));
  UnionQuery u2;
  u2.AddDisjunct(Cq("Q(x) :- P(x)", pool));
  u2.AddDisjunct(Cq("Q(x) :- E(x, y)", pool));

  bool cold12 = UcqContainedIn(u1, u2);
  bool cold21 = UcqContainedIn(u2, u1);
  memo::Store store(64);
  memo::ScopedEnable on(true, &store);
  EXPECT_EQ(UcqContainedIn(u1, u2), cold12);
  memo::StatsSnapshot before = store.Stats();
  // Same test with both sides' disjuncts reordered: same canonical key.
  EXPECT_EQ(UcqContainedIn(u2, u1), cold21);
  EXPECT_EQ(UcqContainedIn(u1, u2), cold12);
  EXPECT_GE(store.Stats().Delta(before).hits, 1u);
}

TEST(MemoWiring, MinimizeCqReplaysExactResult) {
  memo::ScopedEnable on(true);
  ConjunctiveQuery star = StarQuery(4);
  ConjunctiveQuery first = MinimizeCq(star);
  ConjunctiveQuery second = MinimizeCq(star);
  EXPECT_EQ(first.ToString(), second.ToString());
  memo::ScopedEnable off(false);
  ConjunctiveQuery cold = MinimizeCq(star);
  EXPECT_EQ(first.ToString(), cold.ToString());
}

TEST(MemoWiring, ChaseChainHitReplaysChainAndFactoryState) {
  ViewSet views = PathViews(2);
  ConjunctiveQuery q = ChainQuery(4);

  ChaseChainOptions options;
  options.levels = 2;
  ValueFactory cold_factory;
  ChaseChain cold = BuildChaseChain(views, q, options, cold_factory);

  memo::Store store(64);
  memo::ScopedEnable on(true, &store);
  ValueFactory f1;
  ChaseChain warm1 = BuildChaseChain(views, q, options, f1);
  // The chain plus its five chase-back steps, each under its own key.
  EXPECT_EQ(store.Stats().installs, 6u);
  ValueFactory f2;
  ChaseChain warm2 = BuildChaseChain(views, q, options, f2);
  EXPECT_GE(store.Stats().hits, 1u);

  for (const ChaseChain* chain : {&cold, &warm1, &warm2}) {
    ASSERT_EQ(chain->d.size(), cold.d.size());
    for (std::size_t k = 0; k < cold.d.size(); ++k) {
      EXPECT_EQ(chain->d[k], cold.d[k]);
      EXPECT_EQ(chain->s[k], cold.s[k]);
      EXPECT_EQ(chain->s_prime[k], cold.s_prime[k]);
      EXPECT_EQ(chain->d_prime[k], cold.d_prime[k]);
    }
    EXPECT_EQ(chain->frozen_query.frozen_head, cold.frozen_query.frozen_head);
    EXPECT_EQ(chain->outcome, guard::Outcome::kComplete);
  }
  // The hit advanced f2 exactly as far as the computation advanced f1.
  EXPECT_EQ(f1.next_id(), f2.next_id());
  EXPECT_EQ(f1.next_id(), cold_factory.next_id());
}

TEST(MemoWiring, DeterminacyResultReplaysByteIdentically) {
  ViewSet views = PathViews(2);
  ConjunctiveQuery q = ChainQuery(2);
  UnrestrictedDeterminacyResult cold = DecideUnrestrictedDeterminacy(views, q);

  memo::Store store(64);
  memo::ScopedEnable on(true, &store);
  UnrestrictedDeterminacyResult warm1 = DecideUnrestrictedDeterminacy(views, q);
  UnrestrictedDeterminacyResult warm2 = DecideUnrestrictedDeterminacy(views, q);
  EXPECT_GE(store.Stats().hits, 1u);

  for (const UnrestrictedDeterminacyResult* r : {&warm1, &warm2}) {
    EXPECT_EQ(r->determined, cold.determined);
    EXPECT_EQ(r->outcome, cold.outcome);
    EXPECT_EQ(r->canonical_view_image, cold.canonical_view_image);
    EXPECT_EQ(r->chase_inverse, cold.chase_inverse);
    EXPECT_EQ(r->frozen_head, cold.frozen_head);
    ASSERT_EQ(r->canonical_rewriting.has_value(),
              cold.canonical_rewriting.has_value());
    if (cold.canonical_rewriting.has_value()) {
      EXPECT_EQ(r->canonical_rewriting->ToString(),
                cold.canonical_rewriting->ToString());
    }
  }
}

TEST(MemoWiring, ReportCarriesMemoActivityBlock) {
  memo::ScopedEnable on(true);
  ViewSet views = PathViews(2);
  ConjunctiveQuery q = ChainQuery(2);
  DeterminacyAnalysisOptions opts;
  opts.search.domain_size = 2;
  // Two runs: the second must observe cache hits and say so in the summary.
  AnalyzeDeterminacy(views, q, Schema{{"E", 2}}, opts);
  DeterminacyReport report = AnalyzeDeterminacy(views, q, Schema{{"E", 2}}, opts);
  EXPECT_TRUE(report.memo.any());
  EXPECT_GE(report.memo.hits, 1u);
  EXPECT_NE(report.Summary().find("[memo]"), std::string::npos);
}

// --- one switch and one store, nested caches included -----------------------

TEST(MemoNesting, DecisionInstallsItsEntryAndItsChaseBack) {
  memo::Store& process_store = memo::GlobalStore();
  memo::StatsSnapshot process_before = process_store.Stats();
  memo::Store store(64);
  {
    memo::ScopedEnable on(true, &store);
    UnrestrictedDeterminacyResult result =
        DecideUnrestrictedDeterminacy(PathViews(2), ChainQuery(2));
    ASSERT_EQ(result.outcome, guard::Outcome::kComplete);
  }
  EXPECT_EQ(store.Stats().installs, 2u);
  std::vector<std::string> tags;
  for (const memo::Store::ErasedEntry& entry : store.ExportEntries()) {
    tags.push_back(entry.key.substr(0, entry.key.find('|')));
  }
  std::sort(tags.begin(), tags.end());
  EXPECT_EQ(tags, (std::vector<std::string>{"chase.vinv", "det"}));
  EXPECT_FALSE(process_store.Stats().Delta(process_before).any());
  EXPECT_EQ(process_store.size(), process_before.entries);
}

TEST(MemoNesting, SwitchOffLeavesEveryStoreUntouched) {
  memo::Store& process_store = memo::GlobalStore();
  memo::StatsSnapshot process_before = process_store.Stats();
  memo::Store store(64);
  memo::ScopedEnable on(true, &store);
  {
    memo::ScopedEnable off(false);
    DecideUnrestrictedDeterminacy(PathViews(2), ChainQuery(2));
    ValueFactory factory;
    BuildChaseChain(PathViews(2), ChainQuery(3), 2, factory);
    CqContainedIn(ChainQuery(3), ChainQuery(2));
  }
  EXPECT_FALSE(store.Stats().any());
  EXPECT_EQ(store.size(), 0u);
  EXPECT_FALSE(process_store.Stats().Delta(process_before).any());
}

TEST(MemoNesting, RepeatedViewInverseHitsAndReplaysFactory) {
  ViewSet views = PathViews(2);
  ValueFactory start;
  FrozenQuery frozen = Freeze(ChainQuery(3), start);
  Instance image = views.Apply(frozen.instance);
  Instance empty(ChaseSchema(views, frozen.instance.schema()));

  ValueFactory cold_factory = start;
  Instance cold;
  {
    memo::ScopedEnable off(false);
    cold = ViewInverse(views, empty, image, cold_factory);
  }

  memo::Store store(64);
  memo::ScopedEnable on(true, &store);
  ValueFactory f1 = start;
  Instance first = ViewInverse(views, empty, image, f1);
  ValueFactory f2 = start;
  Instance second = ViewInverse(views, empty, image, f2);
  EXPECT_EQ(store.Stats().installs, 1u);
  EXPECT_EQ(store.Stats().hits, 1u);
  EXPECT_EQ(first, cold);
  EXPECT_EQ(second, cold);
  EXPECT_EQ(f1.next_id(), cold_factory.next_id());
  EXPECT_EQ(f2.next_id(), cold_factory.next_id());
}

TEST(MemoWiring, RuntimeOffMeansNoStoreTraffic) {
  memo::ScopedEnable off(false);
  memo::StatsSnapshot before = memo::GlobalStats();
  CqContainedIn(ChainQuery(3), ChainQuery(2));
  ValueFactory factory;
  BuildChaseChain(PathViews(2), ChainQuery(3), 1, factory);
  DecideUnrestrictedDeterminacy(PathViews(2), ChainQuery(2));
  memo::StatsSnapshot delta = memo::GlobalStats().Delta(before);
  EXPECT_FALSE(delta.any());
}

}  // namespace
}  // namespace vqdr
