// Tests for CQ/UCQ containment, equivalence and minimisation
// (Chandra–Merlin [9] and Sagiv–Yannakakis machinery used throughout the
// paper's Section 3).

#include <cstdint>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "base/rng.h"
#include "cq/canonical.h"
#include "cq/containment.h"
#include "cq/matcher.h"
#include "cq/minimize.h"
#include "cq/parser.h"
#include "gen/random_query.h"
#include "guard/budget.h"

namespace vqdr {
namespace {

class ContainmentFixture : public ::testing::Test {
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

  NamePool pool_;
};

TEST_F(ContainmentFixture, LongerPathContainedInShorter) {
  // A 3-path implies a 2-path pattern (drop one hop).
  ConjunctiveQuery p3 = Cq("Q(x, y) :- E(x, a), E(a, b), E(b, y)");
  ConjunctiveQuery p1 = Cq("Q(x, y) :- E(x, y)");
  // p1 says there is a direct edge: every direct edge yields a 3-walk only
  // on reflexive graphs, so p1 is NOT contained in p3.
  EXPECT_FALSE(CqContainedIn(p1, p3));
  // And a 3-walk does not yield a direct edge either.
  EXPECT_FALSE(CqContainedIn(p3, p1));
}

TEST_F(ContainmentFixture, TriangleContainedInWalk) {
  ConjunctiveQuery triangle = Cq("Q(x) :- E(x, y), E(y, z), E(z, x)");
  ConjunctiveQuery walk = Cq("Q(x) :- E(x, u), E(u, v)");
  EXPECT_TRUE(CqContainedIn(triangle, walk));
  EXPECT_FALSE(CqContainedIn(walk, triangle));
}

TEST_F(ContainmentFixture, EquivalentUpToRenaming) {
  ConjunctiveQuery a = Cq("Q(x) :- R(x, y), S(y)");
  ConjunctiveQuery b = Cq("Q(u) :- R(u, w), S(w)");
  EXPECT_TRUE(CqEquivalent(a, b));
}

TEST_F(ContainmentFixture, RedundantAtomEquivalence) {
  ConjunctiveQuery redundant = Cq("Q(x) :- R(x, y), R(x, z)");
  ConjunctiveQuery minimal = Cq("Q(x) :- R(x, y)");
  EXPECT_TRUE(CqEquivalent(redundant, minimal));
}

TEST_F(ContainmentFixture, ConstantsBlockContainment) {
  ConjunctiveQuery general = Cq("Q(x) :- R(x, y)");
  ConjunctiveQuery specific = Cq("Q(x) :- R(x, 'a')");
  EXPECT_TRUE(CqContainedIn(specific, general));
  EXPECT_FALSE(CqContainedIn(general, specific));
}

TEST_F(ContainmentFixture, DistinctConstantsNotEquivalent) {
  ConjunctiveQuery qa = Cq("Q() :- R('a')");
  ConjunctiveQuery qb = Cq("Q() :- R('b')");
  EXPECT_FALSE(CqContainedIn(qa, qb));
  EXPECT_FALSE(CqContainedIn(qb, qa));
}

TEST_F(ContainmentFixture, UnsatisfiableContainedEverywhere) {
  ConjunctiveQuery bot = Cq("Q(x) :- R(x), 'a' = 'b'");
  ConjunctiveQuery any = Cq("Q(x) :- S(x)");
  EXPECT_TRUE(CqContainedIn(bot, any));
  EXPECT_FALSE(CqContainedIn(any, bot));
  EXPECT_FALSE(CqSatisfiable(bot));
  EXPECT_TRUE(CqSatisfiable(any));
}

// The classical incompleteness example for the naive (single canonical
// instance) test in the presence of ≠: with disequalities the containment
// test must consider variable identifications.
TEST_F(ContainmentFixture, DisequalityContainmentNeedsPatterns) {
  // Q1(x) :- R(x,y), R(y,x): on instances where x=y is forced, Q2 with
  // x != y does not apply, so Q1 is not contained in Q2.
  ConjunctiveQuery q1 = Cq("Q(x) :- R(x, y), R(y, x)");
  ConjunctiveQuery q2 = Cq("Q(x) :- R(x, y), R(y, x), x != y");
  EXPECT_TRUE(CqContainedIn(q2, q1));
  EXPECT_FALSE(CqContainedIn(q1, q2));
}

TEST_F(ContainmentFixture, DisequalityEquivalentQueries) {
  ConjunctiveQuery a = Cq("Q(x) :- R(x, y), x != y");
  ConjunctiveQuery b = Cq("Q(u) :- R(u, v), v != u");
  EXPECT_TRUE(CqContainedIn(a, b));
  EXPECT_TRUE(CqContainedIn(b, a));
}

TEST_F(ContainmentFixture, UcqContainmentPerDisjunct) {
  UnionQuery small = Ucq("Q(x) :- A(x)");
  UnionQuery big = Ucq("Q(x) :- A(x) | Q(x) :- B(x)");
  EXPECT_TRUE(UcqContainedIn(small, big));
  EXPECT_FALSE(UcqContainedIn(big, small));
}

TEST_F(ContainmentFixture, UcqContainmentIntoUnionNotSingle) {
  // Sagiv–Yannakakis: a disjunct may be covered by the union even though it
  // maps into no single disjunct — but for pure CQs each canonical instance
  // must satisfy some single disjunct, which this test exercises.
  UnionQuery left = Ucq("Q(x) :- A(x), B(x)");
  UnionQuery right = Ucq("Q(x) :- A(x) | Q(x) :- B(x)");
  EXPECT_TRUE(UcqContainedIn(left, right));
  EXPECT_FALSE(UcqContainedIn(right, left));
}

TEST_F(ContainmentFixture, UcqEquivalenceModuloSubsumedDisjunct) {
  UnionQuery with_redundant =
      Ucq("Q(x) :- A(x) | Q(x) :- A(x), B(x)");
  UnionQuery minimal = Ucq("Q(x) :- A(x)");
  EXPECT_TRUE(UcqEquivalent(with_redundant, minimal));
}

TEST_F(ContainmentFixture, MinimizeRemovesRedundantAtoms) {
  ConjunctiveQuery q = Cq("Q(x) :- R(x, y), R(x, z), R(x, w)");
  ConjunctiveQuery core = MinimizeCq(q);
  EXPECT_EQ(core.atoms().size(), 1u);
  EXPECT_TRUE(CqEquivalent(q, core));
}

TEST_F(ContainmentFixture, MinimizeKeepsNonRedundantAtoms) {
  ConjunctiveQuery q = Cq("Q(x, y) :- E(x, z), E(z, y)");
  ConjunctiveQuery core = MinimizeCq(q);
  EXPECT_EQ(core.atoms().size(), 2u);
}

TEST_F(ContainmentFixture, MinimizeFoldsChainOntoTriangleCore) {
  // Boolean query: triangle plus a pendant walk folds onto the triangle.
  ConjunctiveQuery q =
      Cq("Q() :- E(x, y), E(y, z), E(z, x), E(x, u), E(u, v)");
  ConjunctiveQuery core = MinimizeCq(q);
  EXPECT_EQ(core.atoms().size(), 3u);
  EXPECT_TRUE(CqEquivalent(q, core));
}

TEST_F(ContainmentFixture, MinimizeUcqDropsSubsumedDisjuncts) {
  UnionQuery q =
      Ucq("Q(x) :- A(x) | Q(x) :- A(x), B(x) | Q(x) :- C(x, y), C(x, z)");
  UnionQuery min = MinimizeUcq(q);
  ASSERT_EQ(min.disjuncts().size(), 2u);
  EXPECT_EQ(min.disjuncts()[0].atoms().size(), 1u);
  EXPECT_EQ(min.disjuncts()[1].atoms().size(), 1u);
  EXPECT_TRUE(UcqEquivalent(q, min));
}

TEST_F(ContainmentFixture, MinimizeUcqKeepsOneOfEquivalentPair) {
  UnionQuery q = Ucq("Q(x) :- A(x), A(x) | Q(x) :- A(x)");
  UnionQuery min = MinimizeUcq(q);
  EXPECT_EQ(min.disjuncts().size(), 1u);
  EXPECT_TRUE(UcqEquivalent(q, min));
}

// --- Golden verdict+witness fixtures (DESIGN.md §12) ---
//
// Recorded from the seed matcher. The containment witness is the FIRST
// homomorphism in enumeration order, so these pin the exact enumeration
// sequence: any engine change that alters it — even to another valid
// witness — is a contract break, not a refactor.

std::string RenderWitness(const Binding& witness) {
  std::ostringstream os;
  bool first = true;
  for (const auto& [var, value] : witness) {
    if (!first) os << " ";
    first = false;
    os << var << "=" << value.id;
  }
  return os.str();
}

TEST_F(ContainmentFixture, GoldenTriangleIntoWalkWitness) {
  ConjunctiveQuery triangle = Cq("Q(x) :- E(x, y), E(y, z), E(z, x)");
  ConjunctiveQuery walk = Cq("Q(x) :- E(x, u), E(u, v)");
  ValueFactory factory;
  FrozenQuery pattern = Freeze(triangle, factory);
  Binding witness;
  ASSERT_TRUE(CqAnswerContains(walk, pattern.instance, pattern.frozen_head,
                               nullptr, &witness));
  EXPECT_EQ(RenderWitness(witness), "u=2 v=3 x=1");
}

TEST_F(ContainmentFixture, GoldenRedundantAtomFoldWitness) {
  ConjunctiveQuery redundant = Cq("Q(x) :- R(x, y), R(x, z)");
  ConjunctiveQuery minimal = Cq("Q(x) :- R(x, y)");
  ValueFactory factory;
  FrozenQuery pattern = Freeze(minimal, factory);
  Binding witness;
  ASSERT_TRUE(CqAnswerContains(redundant, pattern.instance,
                               pattern.frozen_head, nullptr, &witness));
  EXPECT_EQ(RenderWitness(witness), "x=1 y=2 z=2");
}

TEST_F(ContainmentFixture, GoldenConstantAnchoredWitness) {
  ConjunctiveQuery specific = Cq("Q(x) :- R(x, 'a'), S('a')");
  ConjunctiveQuery general = Cq("Q(x) :- R(x, w)");
  ValueFactory factory;
  FrozenQuery pattern = Freeze(specific, factory);
  Binding witness;
  ASSERT_TRUE(CqAnswerContains(general, pattern.instance,
                               pattern.frozen_head, nullptr, &witness));
  EXPECT_EQ(RenderWitness(witness), "w=1 x=2");
  EXPECT_FALSE(CqContainedIn(general, specific));
  EXPECT_TRUE(CqContainedIn(specific, general));
}

// A query that is safe only through an equality (y occurs in no atom)
// answers at both entry points, in both directions: each entry normalises
// its operands before it matches them.
TEST(ContainmentTest, EqualityBoundOperandAnswersAtBothEntries) {
  NamePool pool;
  auto cq = [&pool](const char* text) {
    auto q = ParseCq(text, pool);
    EXPECT_TRUE(q.ok()) << q.status().message() << " in: " << text;
    return q.value();
  };
  ConjunctiveQuery plain = cq("Q(x) :- R(x)");
  ConjunctiveQuery bound = cq("Q(x) :- R(x), x = y");
  ConjunctiveQuery other = cq("Q(x) :- S(x)");
  auto with_other = [&other](const ConjunctiveQuery& q) {
    UnionQuery u(other);
    u.AddDisjunct(q);
    return u;
  };

  EXPECT_TRUE(CqContainedIn(plain, bound));
  EXPECT_TRUE(CqContainedIn(bound, plain));
  EXPECT_TRUE(UcqContainedIn(UnionQuery(plain), UnionQuery(bound)));
  EXPECT_TRUE(UcqContainedIn(UnionQuery(bound), UnionQuery(plain)));
  EXPECT_TRUE(UcqContainedIn(UnionQuery(plain), with_other(bound)));
  EXPECT_TRUE(UcqContainedIn(UnionQuery(bound), with_other(plain)));
}

class ContainmentDifferential
    : public ::testing::TestWithParam<std::uint64_t> {};

INSTANTIATE_TEST_SUITE_P(Seeds, ContainmentDifferential,
                         ::testing::Range<std::uint64_t>(1, 81));

// Random CQ pairs with injected disequalities (forcing the
// identification-pattern sweep): the governed sweep, charged one budget
// step per pattern, must reach the ungoverned verdict in both directions,
// and the UCQ entry on the one-disjunct unions must return the CQ entry's
// verdict after checking the same patterns. Nothing here is parallel: the
// name predates the removal of the sweep's thread fan-out.
TEST_P(ContainmentDifferential, ParallelSweepMatchesSerialVerdict) {
  Rng rng(GetParam() + 1000);
  RandomCqOptions copts;
  copts.max_atoms = 3;
  ConjunctiveQuery q1 = RandomCq(rng, copts);
  ConjunctiveQuery q2 = RandomCq(rng, copts);
  // Add a disequality between two drawn variables on each side (when the
  // query has at least two); identical draws make x != x, also a valid case.
  auto add_diseq = [&rng](ConjunctiveQuery& q) {
    std::vector<std::string> vars = q.AllVariables();
    if (vars.size() < 2) return;
    const std::string& a = vars[rng.Below(vars.size())];
    const std::string& b = vars[rng.Below(vars.size())];
    q.AddDisequality(Term::Var(a), Term::Var(b));
  };
  add_diseq(q1);
  if (GetParam() % 2 == 0) add_diseq(q2);

  bool serial12 = CqContainedIn(q1, q2);
  bool serial21 = CqContainedIn(q2, q1);
  guard::Budget budget;
  CqContainmentOptions options;
  options.budget = &budget;
  EXPECT_EQ(CqContainedInGoverned(q1, q2, options).contained, serial12)
      << "seed " << GetParam();
  EXPECT_EQ(CqContainedInGoverned(q2, q1, options).contained, serial21)
      << "seed " << GetParam();

  for (const auto& [left, right] :
       {std::pair(&q1, &q2), std::pair(&q2, &q1)}) {
    ContainmentResult cq = CqContainedInGoverned(*left, *right, options);
    ContainmentResult ucq = UcqContainedInGoverned(
        UnionQuery(*left), UnionQuery(*right), options);
    EXPECT_EQ(ucq.contained, cq.contained) << "seed " << GetParam();
    EXPECT_EQ(ucq.patterns_checked, cq.patterns_checked)
        << "seed " << GetParam();
  }
}

}  // namespace
}  // namespace vqdr
