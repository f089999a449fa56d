// Tests for the data substrate: relations, instances, schemas, isomorphism.

#include <gtest/gtest.h>

#include <algorithm>

#include "base/rng.h"
#include "data/instance.h"
#include "data/isomorphism.h"
#include "data/relation.h"
#include "data/schema.h"

namespace vqdr {
namespace {

TEST(RelationTest, InsertDeduplicatesAndSorts) {
  Relation r(2);
  EXPECT_TRUE(r.Insert(MakeTuple({2, 1})));
  EXPECT_TRUE(r.Insert(MakeTuple({1, 2})));
  EXPECT_FALSE(r.Insert(MakeTuple({2, 1})));
  ASSERT_EQ(r.size(), 2u);
  EXPECT_EQ(r.tuples()[0], MakeTuple({1, 2}));
  EXPECT_EQ(r.tuples()[1], MakeTuple({2, 1}));
}

TEST(RelationTest, ContainsAndErase) {
  Relation r(1);
  r.Insert(MakeTuple({5}));
  EXPECT_TRUE(r.Contains(MakeTuple({5})));
  EXPECT_FALSE(r.Contains(MakeTuple({6})));
  EXPECT_TRUE(r.Erase(MakeTuple({5})));
  EXPECT_FALSE(r.Erase(MakeTuple({5})));
  EXPECT_TRUE(r.empty());
}

TEST(RelationTest, PropositionTruth) {
  Relation p(0);
  EXPECT_FALSE(p.AsBool());
  p.SetBool(true);
  EXPECT_TRUE(p.AsBool());
  p.SetBool(false);
  EXPECT_FALSE(p.AsBool());
}

TEST(RelationTest, SetOperations) {
  Relation a(1, {MakeTuple({1}), MakeTuple({2})});
  Relation b(1, {MakeTuple({2}), MakeTuple({3})});
  EXPECT_EQ(a.Union(b).size(), 3u);
  EXPECT_EQ(a.Intersect(b).size(), 1u);
  EXPECT_EQ(a.Difference(b).size(), 1u);
  EXPECT_TRUE(a.Intersect(b).IsSubsetOf(a));
  EXPECT_FALSE(a.IsSubsetOf(b));
}

TEST(RelationTest, ApplyMergesCollisions) {
  Relation r(2, {MakeTuple({1, 2}), MakeTuple({3, 2})});
  Relation image = r.Apply([](Value v) {
    return v.id == 3 ? Value(1) : v;  // merge 3 into 1
  });
  EXPECT_EQ(image.size(), 1u);
  EXPECT_TRUE(image.Contains(MakeTuple({1, 2})));
}

// A buffer fed many duplicates through AppendCompacting (so it compacts
// several times) never holds more than about twice its distinct tuples, and
// builds the relation one sorted insert per tuple would, at every arity.
TEST(RelationTest, AppendCompactingMatchesPerTupleInserts) {
  Rng rng(11);
  for (int arity : {0, 1, 2, 3}) {
    std::vector<Tuple> buffer;
    Relation expected(arity);
    for (int i = 0; i < 2000; ++i) {
      Tuple t;
      for (int a = 0; a < arity; ++a) t.push_back(Value(rng.Range(1, 7)));
      AppendCompacting(buffer, t);
      expected.Insert(t);
      EXPECT_LE(buffer.size(), std::max<std::size_t>(64, 2 * expected.size()))
          << "arity " << arity << ", tuple " << i;
    }
    EXPECT_EQ(Relation(arity, std::move(buffer)), expected) << "arity " << arity;
  }
}

TEST(RelationTest, InsertNewMergesAndReturnsOnlyNewTuples) {
  Relation r(1, {MakeTuple({1}), MakeTuple({3}), MakeTuple({5})});
  Relation added =
      r.InsertNew(Relation(1, {MakeTuple({2}), MakeTuple({3}), MakeTuple({6})}));
  EXPECT_EQ(added, Relation(1, {MakeTuple({2}), MakeTuple({6})}));
  EXPECT_EQ(r, Relation(1, {MakeTuple({1}), MakeTuple({2}), MakeTuple({3}),
                            MakeTuple({5}), MakeTuple({6})}));
  EXPECT_TRUE(r.InsertNew(Relation(1, {MakeTuple({5})})).empty());
}

TEST(SchemaTest, ArityLookupAndUnion) {
  Schema s{{"R", 2}, {"P", 0}};
  EXPECT_EQ(s.ArityOf("R"), 2);
  EXPECT_EQ(s.ArityOf("P"), 0);
  EXPECT_FALSE(s.ArityOf("S").has_value());
  Schema t{{"S", 1}};
  Schema u = s.UnionWith(t);
  EXPECT_EQ(u.size(), 3u);
  EXPECT_EQ(u.ArityOf("S"), 1);
}

TEST(SchemaTest, WithPrefixRenamesAll) {
  Schema s{{"R", 2}, {"P", 0}};
  Schema p = s.WithPrefix("one_");
  EXPECT_TRUE(p.Contains("one_R"));
  EXPECT_TRUE(p.Contains("one_P"));
  EXPECT_FALSE(p.Contains("R"));
}

TEST(InstanceTest, GetOnUnpopulatedIsEmpty) {
  Instance d(Schema{{"R", 2}});
  EXPECT_TRUE(d.Get("R").empty());
  EXPECT_EQ(d.Get("R").arity(), 2);
}

TEST(InstanceTest, AddFactAndActiveDomain) {
  Instance d(Schema{{"R", 2}, {"P", 1}});
  d.AddFact("R", MakeTuple({1, 2}));
  d.AddFact("P", MakeTuple({7}));
  auto adom = d.ActiveDomain();
  EXPECT_EQ(adom.size(), 3u);
  EXPECT_TRUE(adom.count(Value(7)));
  EXPECT_EQ(d.MaxValueId(), 7);
  EXPECT_EQ(d.TupleCount(), 2u);
}

TEST(InstanceTest, EqualityIgnoresUnpopulatedRelations) {
  Instance a(Schema{{"R", 1}, {"S", 1}});
  Instance b(Schema{{"R", 1}});
  a.AddFact("R", MakeTuple({1}));
  b.AddFact("R", MakeTuple({1}));
  EXPECT_EQ(a, b);
  a.AddFact("S", MakeTuple({2}));
  EXPECT_NE(a, b);
}

TEST(InstanceTest, UnionWithMergesFacts) {
  Instance a(Schema{{"R", 1}});
  Instance b(Schema{{"R", 1}, {"S", 1}});
  a.AddFact("R", MakeTuple({1}));
  b.AddFact("R", MakeTuple({2}));
  b.AddFact("S", MakeTuple({3}));
  Instance u = a.UnionWith(b);
  EXPECT_EQ(u.Get("R").size(), 2u);
  EXPECT_EQ(u.Get("S").size(), 1u);
}

TEST(InstanceTest, SubInstanceAndExtension) {
  Instance d(Schema{{"R", 2}});
  d.AddFact("R", MakeTuple({1, 2}));

  // d2 adds a tuple touching a new value only: a paper-style extension.
  Instance d2(Schema{{"R", 2}});
  d2.AddFact("R", MakeTuple({1, 2}));
  d2.AddFact("R", MakeTuple({2, 3}));
  EXPECT_TRUE(d.IsSubInstanceOf(d2));
  EXPECT_TRUE(d.IsExtendedBy(d2));

  // d3 adds a tuple entirely inside adom(d): a superset but NOT an
  // extension (the restriction to adom(d) differs from d).
  Instance d3(Schema{{"R", 2}});
  d3.AddFact("R", MakeTuple({1, 2}));
  d3.AddFact("R", MakeTuple({2, 1}));
  EXPECT_TRUE(d.IsSubInstanceOf(d3));
  EXPECT_FALSE(d.IsExtendedBy(d3));
}

TEST(InstanceTest, RestrictToFiltersTuples) {
  Instance d(Schema{{"R", 2}});
  d.AddFact("R", MakeTuple({1, 2}));
  d.AddFact("R", MakeTuple({2, 3}));
  Instance r = d.RestrictTo({Value(1), Value(2)});
  EXPECT_EQ(r.Get("R").size(), 1u);
  EXPECT_TRUE(r.HasFact("R", MakeTuple({1, 2})));
}

TEST(IsomorphismTest, DirectedPathsOfEqualLengthAreIsomorphic) {
  Instance a(Schema{{"E", 2}});
  a.AddFact("E", MakeTuple({1, 2}));
  a.AddFact("E", MakeTuple({2, 3}));
  Instance b(Schema{{"E", 2}});
  b.AddFact("E", MakeTuple({10, 20}));
  b.AddFact("E", MakeTuple({20, 30}));
  EXPECT_TRUE(AreIsomorphic(a, b));

  auto iso = FindIsomorphism(a, b);
  ASSERT_TRUE(iso.has_value());
  EXPECT_EQ((*iso)[Value(1)], Value(10));
  EXPECT_EQ((*iso)[Value(2)], Value(20));
  EXPECT_EQ((*iso)[Value(3)], Value(30));
}

TEST(IsomorphismTest, PathVsTriangleNotIsomorphic) {
  Instance path(Schema{{"E", 2}});
  path.AddFact("E", MakeTuple({1, 2}));
  path.AddFact("E", MakeTuple({2, 3}));
  path.AddFact("E", MakeTuple({3, 4}));
  Instance cycle(Schema{{"E", 2}});
  cycle.AddFact("E", MakeTuple({1, 2}));
  cycle.AddFact("E", MakeTuple({2, 3}));
  cycle.AddFact("E", MakeTuple({3, 1}));
  EXPECT_FALSE(AreIsomorphic(path, cycle));
}

TEST(IsomorphismTest, AutomorphismsOfSymmetricEdge) {
  Instance d(Schema{{"E", 2}});
  d.AddFact("E", MakeTuple({1, 2}));
  d.AddFact("E", MakeTuple({2, 1}));
  // Identity and the swap.
  EXPECT_EQ(Automorphisms(d).size(), 2u);
}

TEST(IsomorphismTest, CanonicalKeyEqualIffIsomorphic) {
  Instance a(Schema{{"E", 2}});
  a.AddFact("E", MakeTuple({5, 9}));
  Instance b(Schema{{"E", 2}});
  b.AddFact("E", MakeTuple({3, 1}));
  Instance c(Schema{{"E", 2}});
  c.AddFact("E", MakeTuple({4, 4}));
  EXPECT_EQ(CanonicalKey(a), CanonicalKey(b));
  EXPECT_NE(CanonicalKey(a), CanonicalKey(c));
}

}  // namespace
}  // namespace vqdr
