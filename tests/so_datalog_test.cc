// Tests for second-order evaluation (∃SO/∀SO, Figure 1) and the Datalog
// engine (Corollaries 5.6/5.9 machinery).

#include <gtest/gtest.h>

#include "cq/parser.h"
#include "datalog/program.h"
#include "fo/parser.h"
#include "so/so_query.h"
#include "views/query.h"

namespace vqdr {
namespace {

class SoDatalogFixture : public ::testing::Test {
 protected:
  FoQuery FoQ(const std::string& text) {
    auto q = ParseFoQuery(text, pool_);
    EXPECT_TRUE(q.ok()) << q.status().message();
    return q.value();
  }

  Instance Db(const std::string& text, const Schema& schema) {
    auto d = ParseInstance(text, schema, pool_);
    EXPECT_TRUE(d.ok()) << d.status().message();
    return d.value();
  }

  NamePool pool_;
};

// ∃SO: 2-colorability (a classic NP property). A 2-coloring partitions the
// nodes so that every edge crosses.
TEST_F(SoDatalogFixture, ExistsSoTwoColorability) {
  SoQuery q;
  q.existential = true;
  q.relation_vars = {{"C", 1}};
  q.matrix = FoQ(
      "Q() := forall x, y . (E(x, y) -> (C(x) & !C(y)) | (!C(x) & C(y)))");

  Schema schema{{"E", 2}};
  // A 4-cycle is 2-colorable.
  Instance square = Db("E(a, b), E(b, c), E(c, d), E(d, a)", schema);
  auto r1 = SoSentenceHolds(q, square);
  ASSERT_TRUE(r1.ok()) << r1.status().message();
  EXPECT_TRUE(r1.value());
  // A triangle is not.
  Instance triangle = Db("E(a, b), E(b, c), E(c, a)", schema);
  auto r2 = SoSentenceHolds(q, triangle);
  ASSERT_TRUE(r2.ok());
  EXPECT_FALSE(r2.value());
}

// ∀SO: non-3-colorability is co-NP; here a simpler ∀SO check — every
// subset closed under edges and containing a source contains everything —
// expresses connectivity-style reachability from 'a'.
TEST_F(SoDatalogFixture, ForallSoReachability) {
  SoQuery q;
  q.existential = false;
  q.relation_vars = {{"S", 1}};
  q.matrix = FoQ(
      "Q() := (S('a') & (forall x, y . (S(x) & E(x, y) -> S(y)))) "
      "-> forall z . ((exists w . E(z, w) | E(w, z)) -> S(z))");

  Schema schema{{"E", 2}};
  Instance path = Db("E(a, b), E(b, c)", schema);
  auto reachable = SoSentenceHolds(q, path);
  ASSERT_TRUE(reachable.ok());
  EXPECT_TRUE(reachable.value());

  Instance split = Db("E(a, b), E(c, d)", schema);
  auto unreachable = SoSentenceHolds(q, split);
  ASSERT_TRUE(unreachable.ok());
  EXPECT_FALSE(unreachable.value());
}

TEST_F(SoDatalogFixture, SoWithFreeVariables) {
  // Q(x): x belongs to some independent set containing it of size >= 2 —
  // phrased: exists S with x ∈ S, some y ≠ x in S, and no edge within S.
  SoQuery q;
  q.existential = true;
  q.relation_vars = {{"S", 1}};
  q.matrix = FoQ(
      "Q(h) := S(h) & (exists y . S(y) & y != h) "
      "& (forall u, v . (S(u) & S(v) -> !E(u, v)))");
  Schema schema{{"E", 2}};
  Instance path = Db("E(a, b), E(b, c)", schema);
  auto answer = EvaluateSo(q, path);
  ASSERT_TRUE(answer.ok());
  // {a, c} is independent; b is adjacent to both others but {b} ∪ {} too
  // small, and {a,c} ∌ b. So answers: a and c.
  EXPECT_EQ(answer->size(), 2u);
  EXPECT_TRUE(answer->Contains(Tuple{pool_.Intern("a")}));
  EXPECT_TRUE(answer->Contains(Tuple{pool_.Intern("c")}));
}

TEST_F(SoDatalogFixture, SoBudgetIsEnforced) {
  SoQuery q;
  q.existential = true;
  q.relation_vars = {{"S", 2}};  // n² candidate tuples
  q.matrix = FoQ("Q() := exists x . S(x, x)");
  Schema schema{{"E", 2}};
  // 6 nodes → 36 candidate tuples > default 24.
  Instance big = Db("E(a,b), E(b,c), E(c,d), E(d,e), E(e,f)", schema);
  auto result = SoSentenceHolds(q, big);
  EXPECT_FALSE(result.ok());
}

TEST_F(SoDatalogFixture, DatalogTransitiveClosure) {
  auto program = ParseDatalog(
      "T(x, y) :- E(x, y); T(x, y) :- E(x, z), T(z, y)", pool_);
  ASSERT_TRUE(program.ok()) << program.status().message();
  Schema schema{{"E", 2}};
  Instance d = Db("E(a, b), E(b, c), E(c, d)", schema);
  auto t = program->Query(d, "T");
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->size(), 6u);  // all forward pairs
  EXPECT_TRUE(t->Contains(Tuple{pool_.Intern("a"), pool_.Intern("d")}));
}

// A user relation may have any identifier-shaped name, "__delta" included:
// the evaluator's working relations (the semi-naïve deltas) must never
// shadow one, or the closure below loses facts.
TEST_F(SoDatalogFixture, DatalogUserRelationNamedLikeADelta) {
  Instance path = Db("E(a, b), E(b, c), E(c, d), E(d, e), E(e, f)",
                     Schema{{"E", 2}});
  Instance renamed(Schema{{"__delta", 2}});
  renamed.Set("__delta", path.Get("E"));
  auto over_e = ParseDatalog(
      "T(x, y) :- E(x, y); T(x, y) :- E(x, z), T(z, y)", pool_);
  auto over_delta = ParseDatalog(
      "T(x, y) :- __delta(x, y); T(x, y) :- __delta(x, z), T(z, y)", pool_);
  ASSERT_TRUE(over_e.ok() && over_delta.ok());
  auto t_e = over_e->Query(path, "T");
  auto t_delta = over_delta->Query(renamed, "T");
  ASSERT_TRUE(t_e.ok() && t_delta.ok());
  EXPECT_EQ(t_e->size(), 15u);  // every forward pair of a 6-node path
  EXPECT_EQ(t_delta->ToString(), t_e->ToString());
}

TEST_F(SoDatalogFixture, DatalogSemiNaiveMatchesOnCycle) {
  auto program = ParseDatalog(
      "T(x, y) :- E(x, y); T(x, y) :- T(x, z), T(z, y)", pool_);
  ASSERT_TRUE(program.ok());
  Schema schema{{"E", 2}};
  Instance d = Db("E(a, b), E(b, a)", schema);
  auto t = program->Query(d, "T");
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->size(), 4u);  // {a,b}²
}

TEST_F(SoDatalogFixture, DatalogWithDisequality) {
  auto program =
      ParseDatalog("NEq(x, y) :- E(x, y), x != y", pool_);
  ASSERT_TRUE(program.ok());
  Schema schema{{"E", 2}};
  Instance d = Db("E(a, a), E(a, b)", schema);
  auto answer = program->Query(d, "NEq");
  ASSERT_TRUE(answer.ok());
  EXPECT_EQ(answer->size(), 1u);
}

TEST_F(SoDatalogFixture, DatalogStratifiedNegation) {
  // Nodes not reachable from 'a'.
  auto program = ParseDatalog(
      "Reach(x) :- S(x);"
      "Reach(y) :- Reach(x), E(x, y);"
      "Node(x) :- E(x, y); Node(y) :- E(x, y);"
      "Unreach(x) :- Node(x), not Reach(x)",
      pool_);
  ASSERT_TRUE(program.ok());
  EXPECT_TRUE(program->IsStratified());
  EXPECT_FALSE(program->IsPositive());

  Schema schema{{"E", 2}, {"S", 1}};
  Instance d = Db("S(a), E(a, b), E(c, d)", schema);
  auto answer = program->Query(d, "Unreach");
  ASSERT_TRUE(answer.ok());
  EXPECT_EQ(answer->size(), 2u);
  EXPECT_TRUE(answer->Contains(Tuple{pool_.Intern("c")}));
  EXPECT_TRUE(answer->Contains(Tuple{pool_.Intern("d")}));
}

TEST_F(SoDatalogFixture, DatalogRejectsUnstratified) {
  auto program = ParseDatalog("P(x) :- E(x, y), not P(y)", pool_);
  ASSERT_TRUE(program.ok());
  EXPECT_FALSE(program->IsStratified());
  Schema schema{{"E", 2}};
  Instance d = Db("E(a, b)", schema);
  EXPECT_FALSE(program->Evaluate(d).ok());
}

TEST_F(SoDatalogFixture, DatalogRejectsUnsafeRule) {
  auto program = ParseDatalog("P(x, w) :- E(x, y)", pool_);
  ASSERT_TRUE(program.ok());
  Schema schema{{"E", 2}};
  EXPECT_FALSE(program->Evaluate(Instance(schema)).ok());
}

TEST_F(SoDatalogFixture, DatalogSameGenerationProgram) {
  // Same-generation: a classic nonlinear Datalog workload.
  auto program = ParseDatalog(
      "SG(x, y) :- Par(x, p), Par(y, p);"
      "SG(x, y) :- Par(x, u), Par(y, v), SG(u, v)",
      pool_);
  ASSERT_TRUE(program.ok());
  Schema schema{{"Par", 2}};
  // A small tree: r has children a, b; a has child c; b has child d.
  Instance d = Db("Par(a, r), Par(b, r), Par(c, a), Par(d, b)", schema);
  auto sg = program->Query(d, "SG");
  ASSERT_TRUE(sg.ok());
  EXPECT_TRUE(sg->Contains(Tuple{pool_.Intern("a"), pool_.Intern("b")}));
  EXPECT_TRUE(sg->Contains(Tuple{pool_.Intern("c"), pool_.Intern("d")}));
  EXPECT_FALSE(sg->Contains(Tuple{pool_.Intern("a"), pool_.Intern("d")}));
}

TEST_F(SoDatalogFixture, QueryWrapperDatalogEval) {
  auto program = ParseDatalog(
      "T(x, y) :- E(x, y); T(x, y) :- E(x, z), T(z, y)", pool_);
  ASSERT_TRUE(program.ok());
  Query q = Query::FromDatalog(program.value(), "T");
  EXPECT_EQ(q.language(), Query::Language::kDatalog);
  EXPECT_EQ(q.arity(), 2);
  EXPECT_TRUE(q.IsSyntacticallyMonotone());
  Schema schema{{"E", 2}};
  Instance d = Db("E(a, b), E(b, c)", schema);
  EXPECT_EQ(q.Eval(d).size(), 3u);
}

}  // namespace
}  // namespace vqdr
