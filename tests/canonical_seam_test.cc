// Regression battery for the canonicalization seam — the code that moves
// between queries, frozen instances, and back (Freeze, InstanceToQuery, the
// V-inverse chase) plus MinimizeCq's order-(in)dependence. The memo
// subsystem keys on these functions, so a naming collision or a
// constant/fresh-value alias here would silently conflate distinct cache
// entries; each test pins one such hazard.

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "base/rng.h"
#include "chase/chain.h"
#include "chase/view_inverse.h"
#include "cq/canonical.h"
#include "cq/containment.h"
#include "cq/fingerprint.h"
#include "cq/matcher.h"
#include "cq/minimize.h"
#include "cq/parser.h"
#include "gen/random_query.h"
#include "gen/workloads.h"
#include "views/view_set.h"

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

// --- S1: InstanceToQuery variable naming ----------------------------------

TEST(InstanceToQuery, NegativeAndPositiveIdsGetDistinctVariables) {
  // Value ids -3 and 2 must not land on the same variable name (and neither
  // may clash with ids 3 / -2). The naming scheme is "v<id>" for ids >= 0
  // and "vn<-(id+1)>" for ids < 0.
  Instance db(Schema{{"E", 2}});
  db.AddFact("E", {Value(-3), Value(2)});
  db.AddFact("E", {Value(3), Value(-2)});
  ConjunctiveQuery q =
      InstanceToQuery(db, /*head=*/{Value(2)}, /*constants=*/{});

  std::set<std::string> vars;
  for (const Atom& a : q.atoms()) {
    for (const Term& t : a.args) {
      ASSERT_TRUE(t.is_var());
      vars.insert(t.var());
    }
  }
  // Four distinct values → four distinct variables.
  EXPECT_EQ(vars.size(), 4u) << q.ToString();
  EXPECT_TRUE(vars.count("v2") > 0);
  EXPECT_TRUE(vars.count("v3") > 0);
  EXPECT_TRUE(vars.count("vn1") > 0);  // id -2
  EXPECT_TRUE(vars.count("vn2") > 0);  // id -3

  // The identity assignment satisfies the query on db: the head value 2 is
  // among the answers.
  Relation answers = EvaluateCq(q, db);
  EXPECT_TRUE(answers.Contains(Tuple{Value(2)})) << q.ToString();
}

TEST(InstanceToQuery, GeneratedVariableCannotCaptureAConstantNamedV1) {
  // A parser constant whose *interned name* is "v1" is a Value like any
  // other; InstanceToQuery emits constants as Term::Const (compared by
  // value id, never by name), so a generated variable "v1" next to it is a
  // different term entirely.
  NamePool pool;
  pool.Intern("padding");          // shifts the next id to 2
  Value c = pool.Intern("v1");
  ASSERT_EQ(c.id, 2);

  Instance db(Schema{{"E", 2}});
  db.AddFact("E", {Value(1), c});  // Value(1) free → variable named "v1"
  ConjunctiveQuery q = InstanceToQuery(db, /*head=*/{Value(1)},
                                       /*constants=*/{c});
  ASSERT_EQ(q.atoms().size(), 1u);
  const Atom& atom = q.atoms()[0];
  ASSERT_TRUE(atom.args[0].is_var());
  EXPECT_EQ(atom.args[0].var(), "v1");  // same spelling as c's pool name...
  ASSERT_TRUE(atom.args[1].is_const());
  EXPECT_EQ(atom.args[1].constant(), c);  // ...but c stays a constant term

  // Semantics: Q(x) :- E(x, 2). On a database where E = {(5, 2), (6, 3)}
  // only 5 answers — the constant constrains, the variable binds.
  Instance other(Schema{{"E", 2}});
  other.AddFact("E", {Value(5), c});
  other.AddFact("E", {Value(6), Value(3)});
  Relation answers = EvaluateCq(q, other);
  EXPECT_TRUE(answers.Contains(Tuple{Value(5)}));
  EXPECT_FALSE(answers.Contains(Tuple{Value(6)}));
}

TEST(InstanceToQuery, RoundTripThroughFreezeIsEquivalent) {
  // Freeze then InstanceToQuery recovers a query equivalent to the original
  // (the canonical-instance correspondence the memo fingerprints rely on).
  ConjunctiveQuery q = ChainQuery(3);
  ValueFactory factory;
  FrozenQuery frozen = Freeze(q, factory);
  ConjunctiveQuery back = InstanceToQuery(frozen.instance, frozen.frozen_head,
                                          /*constants=*/{}, q.head_name());
  EXPECT_TRUE(CqEquivalent(q, back))
      << q.ToString() << " vs " << back.ToString();
  EXPECT_EQ(CanonicalCqFingerprint(q), CanonicalCqFingerprint(back));
}

// --- S2: constants vs fresh values across Freeze / the chase --------------

TEST(Freeze, AdvancesFactoryPastHeadOnlyConstants) {
  // The constant 7 appears *only* in the head. Freeze must still advance the
  // factory past it, or the first frozen variable would alias it.
  ConjunctiveQuery q("Q", {Term::Const(Value(7)), Term::Var("x")});
  Atom body;
  body.predicate = "R";
  body.args = {Term::Var("x")};
  q.AddAtom(body);

  ValueFactory factory;
  FrozenQuery frozen = Freeze(q, factory);
  for (const auto& [var, value] : frozen.var_to_value) {
    EXPECT_NE(value, Value(7)) << "frozen " << var << " aliases the constant";
  }
  ASSERT_EQ(frozen.frozen_head.size(), 2u);
  EXPECT_EQ(frozen.frozen_head[0], Value(7));
  EXPECT_NE(frozen.frozen_head[1], Value(7));
}

TEST(ViewInverse, FreshValuesNeverCollideWithViewDefinitionConstants) {
  // V2's body mentions the constant 15, which appears nowhere in `base` or
  // `s_prime`. Chasing ten V1 tuples mints at least ten fresh values; if the
  // factory were advanced only past adom(base) ∪ adom(s_prime), value 15
  // would be minted as a "fresh" null and silently alias the constant.
  ConjunctiveQuery v1("V1", {Term::Var("x")});
  Atom r;
  r.predicate = "R";
  r.args = {Term::Var("x"), Term::Var("y")};
  v1.AddAtom(r);
  ConjunctiveQuery v2("V2", {Term::Var("x")});
  Atom s;
  s.predicate = "S";
  s.args = {Term::Var("x"), Term::Const(Value(15))};
  v2.AddAtom(s);
  ViewSet views;
  views.Add("V1", Query::FromCq(v1));
  views.Add("V2", Query::FromCq(v2));

  Instance base(Schema{{"R", 2}, {"S", 2}});
  Instance s_prime(views.OutputSchema());
  for (int i = 1; i <= 10; ++i) s_prime.AddFact("V1", {Value(i)});

  ValueFactory factory;
  Instance result = ViewInverse(views, base, s_prime, factory);

  // Every R-fact is (head value, fresh null); no null may equal 15.
  for (TupleRef fact : result.Get("R").tuples()) {
    ASSERT_EQ(fact.size(), 2u);
    EXPECT_NE(fact[1], Value(15))
        << "fresh chase value aliases the view constant 15";
  }
  EXPECT_EQ(result.Get("R").size(), 10u);
}

TEST(ChaseChain, LevelZeroFreshValuesAvoidViewConstants) {
  // The query has no constants; the view body carries the constant 2. At
  // level 0 the chain freezes Q — those frozen values must already steer
  // clear of every view constant, or [Q]'s nulls alias a domain constant in
  // the very instances the determinacy verdict is computed from.
  ConjunctiveQuery view("V", {Term::Var("x")});
  Atom e;
  e.predicate = "E";
  e.args = {Term::Var("x"), Term::Const(Value(2))};
  view.AddAtom(e);
  ViewSet views;
  views.Add("V", Query::FromCq(view));

  NamePool pool;
  ConjunctiveQuery q = Cq("Q(x) :- E(x, y)", pool);
  ValueFactory factory;
  ChaseChain chain = BuildChaseChain(views, q, /*levels=*/1, factory);
  ASSERT_EQ(chain.outcome, guard::Outcome::kComplete);
  for (const auto& [var, value] : chain.frozen_query.var_to_value) {
    EXPECT_NE(value, Value(2))
        << "level-0 frozen " << var << " aliases the view constant";
  }
}

// --- S3: MinimizeCq order-independence up to isomorphism ------------------

TEST(MinimizeCq, ShuffledAndRenamedInputsYieldIsomorphicCores) {
  // Cores are unique up to isomorphism, so whatever order MinimizeCq tries
  // removals in, two isomorphic presentations of the same query must land on
  // cores of equal size that are equivalent and share a canonical
  // fingerprint. ~60 seeds of random CQs, each against a shuffled+renamed
  // copy of itself.
  RandomCqOptions opts;
  opts.max_atoms = 5;
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    Rng rng(seed);
    ConjunctiveQuery q = RandomCq(rng, opts);
    ConjunctiveQuery variant = ShuffleAtoms(q, rng).RenameVariables(
        [](const std::string& v) { return "s3_" + v; });

    ConjunctiveQuery core_a = MinimizeCq(q);
    ConjunctiveQuery core_b = MinimizeCq(variant);
    EXPECT_EQ(core_a.atoms().size(), core_b.atoms().size())
        << "seed " << seed << ": " << core_a.ToString() << " vs "
        << core_b.ToString();
    EXPECT_TRUE(CqEquivalent(core_a, core_b)) << "seed " << seed;
    EXPECT_TRUE(CqEquivalent(core_a, q)) << "seed " << seed;
    EXPECT_EQ(CanonicalCqFingerprint(core_a), CanonicalCqFingerprint(core_b))
        << "seed " << seed << ": cores not isomorphic: " << core_a.ToString()
        << " vs " << core_b.ToString();
  }
}

TEST(MinimizeCq, CoreOfStarIsSingleAtomRegardlessOfPresentation) {
  ConjunctiveQuery star = StarQuery(4);
  Rng rng(99);
  for (int round = 0; round < 5; ++round) {
    ConjunctiveQuery shuffled = ShuffleAtoms(star, rng);
    ConjunctiveQuery core = MinimizeCq(shuffled);
    EXPECT_EQ(core.atoms().size(), 1u) << core.ToString();
    EXPECT_TRUE(CqEquivalent(core, star));
  }
}

}  // namespace
}  // namespace vqdr
