// Tests for conjunctive-query syntax, parsing, evaluation, freezing and
// homomorphisms.

#include <gtest/gtest.h>

#include "cq/canonical.h"
#include "cq/matcher.h"
#include "cq/parser.h"

namespace vqdr {
namespace {

class CqFixture : public ::testing::Test {
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

  Instance Db(const std::string& text, const Schema& schema) {
    auto d = ParseInstance(text, schema, pool_);
    EXPECT_TRUE(d.ok()) << d.status().message() << " in: " << text;
    return d.value();
  }

  Value C(const std::string& name) { return pool_.Intern(name); }

  NamePool pool_;
};

TEST_F(CqFixture, ParseBasicCq) {
  ConjunctiveQuery q = Cq("Q(x, y) :- R(x, z), S(z, y)");
  EXPECT_EQ(q.head_name(), "Q");
  EXPECT_EQ(q.head_arity(), 2);
  EXPECT_EQ(q.atoms().size(), 2u);
  EXPECT_TRUE(q.IsPureCq());
  EXPECT_TRUE(q.IsSafe());
}

TEST_F(CqFixture, ParseExtensions) {
  ConjunctiveQuery q =
      Cq("Q(x) :- R(x, y), not T(y), x != y, y = 'alice'");
  EXPECT_FALSE(q.IsPureCq());
  EXPECT_TRUE(q.UsesNegation());
  EXPECT_TRUE(q.UsesDisequality());
  EXPECT_TRUE(q.UsesEquality());
  EXPECT_TRUE(q.UsesConstants());
  EXPECT_TRUE(q.IsSafe());
}

TEST_F(CqFixture, ParseErrors) {
  EXPECT_FALSE(ParseCq("Q(x) :- R(x", pool_).ok());
  EXPECT_FALSE(ParseCq("Q(x) R(x)", pool_).ok());
  EXPECT_FALSE(ParseCq("Q(x) :- R(x) extra!", pool_).ok());
  EXPECT_FALSE(ParseCq("", pool_).ok());
}

TEST_F(CqFixture, ParseBooleanQueryWithEmptyBodyKeyword) {
  ConjunctiveQuery q = Cq("Q() :- true");
  EXPECT_EQ(q.head_arity(), 0);
  EXPECT_TRUE(q.atoms().empty());
  Instance d(Schema{});
  EXPECT_TRUE(CqHolds(q, d));
}

TEST_F(CqFixture, SafetyDetection) {
  ConjunctiveQuery unsafe_head = Cq("Q(x, w) :- R(x, y)");
  EXPECT_FALSE(unsafe_head.IsSafe());
  ConjunctiveQuery unsafe_neg = Cq("Q(x) :- R(x, y), not T(w)");
  EXPECT_FALSE(unsafe_neg.IsSafe());
  ConjunctiveQuery unsafe_diseq = Cq("Q(x) :- R(x, y), x != w");
  EXPECT_FALSE(unsafe_diseq.IsSafe());
}

TEST_F(CqFixture, EvaluatePathJoin) {
  Schema schema{{"R", 2}, {"S", 2}};
  Instance d = Db("R(a, b), R(a, c), S(b, e), S(c, e)", schema);
  ConjunctiveQuery q = Cq("Q(x, y) :- R(x, z), S(z, y)");
  Relation answer = EvaluateCq(q, d);
  EXPECT_EQ(answer.size(), 1u);
  EXPECT_TRUE(answer.Contains(Tuple{C("a"), C("e")}));
}

TEST_F(CqFixture, EvaluateWithRepeatedVariable) {
  Schema schema{{"R", 2}};
  Instance d = Db("R(a, a), R(a, b)", schema);
  ConjunctiveQuery q = Cq("Q(x) :- R(x, x)");
  Relation answer = EvaluateCq(q, d);
  EXPECT_EQ(answer.size(), 1u);
  EXPECT_TRUE(answer.Contains(Tuple{C("a")}));
}

TEST_F(CqFixture, EvaluateWithConstant) {
  Schema schema{{"R", 2}};
  Instance d = Db("R(a, b), R(c, b)", schema);
  ConjunctiveQuery q = Cq("Q(y) :- R('a', y)");
  Relation answer = EvaluateCq(q, d);
  EXPECT_EQ(answer.size(), 1u);
  EXPECT_TRUE(answer.Contains(Tuple{C("b")}));
}

TEST_F(CqFixture, EvaluateNegationAndDisequality) {
  Schema schema{{"R", 2}, {"T", 1}};
  Instance d = Db("R(a, b), R(b, b), T(a)", schema);
  ConjunctiveQuery q = Cq("Q(x, y) :- R(x, y), not T(x), x != y");
  Relation answer = EvaluateCq(q, d);
  // R(a,b) fails not T(a); R(b,b) fails b != b.
  EXPECT_TRUE(answer.empty());
}

TEST_F(CqFixture, EvaluateEqualityPropagation) {
  Schema schema{{"R", 2}};
  Instance d = Db("R(a, a), R(a, b)", schema);
  ConjunctiveQuery q = Cq("Q(x, y) :- R(x, y), x = y");
  Relation answer = EvaluateCq(q, d);
  EXPECT_EQ(answer.size(), 1u);
  EXPECT_TRUE(answer.Contains(Tuple{C("a"), C("a")}));
}

TEST_F(CqFixture, EvaluateUnsatisfiableEquality) {
  Schema schema{{"R", 1}};
  Instance d = Db("R(a)", schema);
  ConjunctiveQuery q = Cq("Q(x) :- R(x), 'a' = 'b'");
  EXPECT_TRUE(EvaluateCq(q, d).empty());
}

TEST_F(CqFixture, EvaluateUcqIsUnionOfDisjuncts) {
  Schema schema{{"A", 1}, {"B", 1}};
  Instance d = Db("A(a), B(b)", schema);
  UnionQuery q = Ucq("Q(x) :- A(x) | Q(x) :- B(x)");
  Relation answer = EvaluateUcq(q, d);
  EXPECT_EQ(answer.size(), 2u);
}

TEST_F(CqFixture, EvaluateOnMissingRelationIsEmpty) {
  // The query mentions S which the database schema lacks.
  Schema schema{{"R", 2}};
  Instance d = Db("R(a, b)", schema);
  ConjunctiveQuery q = Cq("Q(x) :- R(x, y), S(y)");
  EXPECT_TRUE(EvaluateCq(q, d).empty());
}

TEST_F(CqFixture, CqAnswerContainsStopsEarly) {
  Schema schema{{"R", 2}};
  Instance d = Db("R(a, b), R(b, c)", schema);
  ConjunctiveQuery q = Cq("Q(x) :- R(x, y)");
  EXPECT_TRUE(CqAnswerContains(q, d, Tuple{C("a")}));
  EXPECT_FALSE(CqAnswerContains(q, d, Tuple{C("c")}));
}

TEST_F(CqFixture, FreezeBuildsCanonicalInstance) {
  ConjunctiveQuery q = Cq("Q(x, y) :- R(x, z), S(z, y)");
  ValueFactory factory;
  FrozenQuery frozen = Freeze(q, factory);
  EXPECT_EQ(frozen.instance.Get("R").size(), 1u);
  EXPECT_EQ(frozen.instance.Get("S").size(), 1u);
  EXPECT_EQ(frozen.frozen_head.size(), 2u);
  EXPECT_EQ(frozen.var_to_value.size(), 3u);
  // Distinct variables freeze to distinct values.
  EXPECT_NE(frozen.var_to_value.at("x"), frozen.var_to_value.at("y"));
  EXPECT_NE(frozen.var_to_value.at("x"), frozen.var_to_value.at("z"));
}

TEST_F(CqFixture, FreezeKeepsConstants) {
  ConjunctiveQuery q = Cq("Q(x) :- R(x, 'a')");
  ValueFactory factory;
  FrozenQuery frozen = Freeze(q, factory);
  ASSERT_EQ(frozen.instance.Get("R").size(), 1u);
  TupleRef fact = frozen.instance.Get("R").tuples()[0];
  EXPECT_EQ(fact[1], C("a"));
  EXPECT_NE(fact[0], C("a"));  // variable frozen to a fresh value
}

TEST_F(CqFixture, InstanceToQueryRoundTrip) {
  ConjunctiveQuery q = Cq("Q(x, y) :- R(x, z), S(z, y)");
  ValueFactory factory;
  FrozenQuery frozen = Freeze(q, factory);
  ConjunctiveQuery back =
      InstanceToQuery(frozen.instance, frozen.frozen_head, /*constants=*/{});
  EXPECT_EQ(back.atoms().size(), 2u);
  EXPECT_EQ(back.head_arity(), 2);
  // The round-tripped query evaluates identically on a sample database.
  Schema schema{{"R", 2}, {"S", 2}};
  Instance d = Db("R(a, b), S(b, c), R(c, c), S(c, a)", schema);
  EXPECT_EQ(EvaluateCq(q, d), EvaluateCq(back, d));
}

TEST_F(CqFixture, HomomorphismPathIntoTriangle) {
  // A directed 4-path maps homomorphically into a directed triangle.
  Instance path(Schema{{"E", 2}});
  path.AddFact("E", MakeTuple({11, 12}));
  path.AddFact("E", MakeTuple({12, 13}));
  path.AddFact("E", MakeTuple({13, 14}));
  Instance triangle(Schema{{"E", 2}});
  triangle.AddFact("E", MakeTuple({1, 2}));
  triangle.AddFact("E", MakeTuple({2, 3}));
  triangle.AddFact("E", MakeTuple({3, 1}));
  auto hom = FindInstanceHomomorphism(path, triangle);
  ASSERT_TRUE(hom.has_value());
  // Verify it is a homomorphism.
  Instance image = path.Apply([&](Value v) { return hom->at(v); });
  EXPECT_TRUE(image.IsSubInstanceOf(triangle));
}

TEST_F(CqFixture, NoHomomorphismTriangleIntoPath) {
  Instance triangle(Schema{{"E", 2}});
  triangle.AddFact("E", MakeTuple({1, 2}));
  triangle.AddFact("E", MakeTuple({2, 3}));
  triangle.AddFact("E", MakeTuple({3, 1}));
  Instance path(Schema{{"E", 2}});
  path.AddFact("E", MakeTuple({11, 12}));
  path.AddFact("E", MakeTuple({12, 13}));
  EXPECT_FALSE(FindInstanceHomomorphism(triangle, path).has_value());
}

TEST_F(CqFixture, HomomorphismRespectsFixedValues) {
  Instance a(Schema{{"E", 2}});
  a.AddFact("E", MakeTuple({1, 2}));
  Instance b(Schema{{"E", 2}});
  b.AddFact("E", MakeTuple({10, 20}));
  b.AddFact("E", MakeTuple({30, 40}));
  auto hom = FindInstanceHomomorphism(a, b, {{Value(1), Value(30)}});
  ASSERT_TRUE(hom.has_value());
  EXPECT_EQ(hom->at(Value(2)), Value(40));
  EXPECT_FALSE(FindInstanceHomomorphism(a, b, {{Value(1), Value(20)}})
                   .has_value());
}

TEST_F(CqFixture, HomomorphismRespectsConstants) {
  Instance a(Schema{{"E", 2}});
  a.AddFact("E", MakeTuple({1, 2}));
  Instance b(Schema{{"E", 2}});
  b.AddFact("E", MakeTuple({2, 1}));
  // Without constants a maps onto b by swapping.
  EXPECT_TRUE(FindInstanceHomomorphism(a, b).has_value());
  // Forcing both values constant leaves no homomorphism.
  EXPECT_FALSE(
      FindInstanceHomomorphism(a, b, {}, {Value(1), Value(2)}).has_value());
}

TEST_F(CqFixture, PropagateEqualitiesUnsatisfiableDisequality) {
  ConjunctiveQuery q = Cq("Q(x) :- R(x, y), x = y, x != y");
  bool sat = true;
  q.PropagateEqualities(&sat);
  EXPECT_FALSE(sat);
}

TEST_F(CqFixture, RenameVariablesPreservesStructure) {
  ConjunctiveQuery q = Cq("Q(x) :- R(x, y), x != y");
  ConjunctiveQuery renamed =
      q.RenameVariables([](const std::string& v) { return v + "_1"; });
  EXPECT_EQ(renamed.head_terms()[0].var(), "x_1");
  EXPECT_EQ(renamed.atoms()[0].args[1].var(), "y_1");
  EXPECT_EQ(renamed.disequalities()[0].rhs.var(), "y_1");
}

TEST_F(CqFixture, DeeplyNestedParensAreRejectedNotOverflowed) {
  // The rule grammar is flat, but the lexer still caps hostile "((((..."
  // input explicitly instead of leaving the bound to downstream behavior.
  std::string text = "Q(x) :- R";
  text += std::string(10'000, '(');
  auto q = ParseCq(text, pool_);
  ASSERT_FALSE(q.ok());
  EXPECT_EQ(q.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(CqFixture, MalformedQueryCorpusErrorsCleanly) {
  const char* corpus[] = {
      "",
      "Q",
      "Q(x)",
      "Q(x) :-",
      "Q(x) :- R(x,",
      "Q(x) :- R(x))",
      "Q(x) : R(x)",
      "Q(x) :- not",
      "Q(x) :- x =",
      "Q(x) :- 'unterminated",
      "Q(x) :- R(x) !",
      "Q(x) :- R(x) | S(x)",  // pipe only valid in ParseUcq
  };
  for (const char* text : corpus) {
    auto q = ParseCq(text, pool_);
    EXPECT_FALSE(q.ok()) << "accepted malformed: " << text;
  }
}

TEST_F(CqFixture, ParseInstanceErrors) {
  Schema schema{{"R", 2}};
  EXPECT_FALSE(ParseInstance("S(a)", schema, pool_).ok());
  EXPECT_FALSE(ParseInstance("R(a)", schema, pool_).ok());
  EXPECT_FALSE(ParseInstance("R(a, b", schema, pool_).ok());
  EXPECT_TRUE(ParseInstance("", schema, pool_).ok());
}

// InstanceToString prints the fact-list format ParseInstance accepts back:
// serialize -> parse -> serialize is a string fixpoint. Covers bare
// identifier-shaped constants, quoted constants with spaces/digits-first
// names, zero-ary facts, and elided empty relations.
TEST_F(CqFixture, InstanceToStringRoundTrips) {
  Schema schema{{"R", 2}, {"P", 1}, {"Flag", 0}, {"Empty", 1}};
  const char* corpus[] = {
      "R(a, b), R(b, c), P(a)",
      "R('some const', b), P('123')",
      "Flag(), R(x1, _under), P('quoted name')",
      "",
      "P(a), P(b), P(a)",  // duplicate facts collapse to set semantics
  };
  for (const char* text : corpus) {
    Instance first = Db(text, schema);
    std::string printed = InstanceToString(first, pool_);
    auto reparsed = ParseInstance(printed, schema, pool_);
    ASSERT_TRUE(reparsed.ok())
        << reparsed.status().message() << " in printed form: " << printed;
    EXPECT_EQ(InstanceToString(reparsed.value(), pool_), printed)
        << "not a fixpoint for: " << text;
  }
}

}  // namespace
}  // namespace vqdr
