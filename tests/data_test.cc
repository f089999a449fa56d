// Tests for the data substrate: relations, instances, schemas, isomorphism.

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <set>
#include <string>
#include <vector>

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

// A buffer fed many duplicates (so it compacts several times) never holds
// more than max(64, 2 × distinct) rows, and builds the relation one sorted
// insert per tuple would, at every arity, including the wide rows sorted
// through an index permutation.
TEST(RelationTest, RowBufferMatchesPerTupleInserts) {
  Rng rng(11);
  for (int arity : {0, 1, 2, 3, 4, 5}) {
    RowBuffer buffer(arity);
    Relation expected(arity);
    for (int i = 0; i < 2000; ++i) {
      Tuple t;
      for (int a = 0; a < arity; ++a) t.push_back(Value(rng.Range(1, 7)));
      buffer.Append(t);
      expected.Insert(t);
      EXPECT_LE(buffer.size(), std::max<std::size_t>(64, 2 * expected.size()))
          << "arity " << arity << ", tuple " << i;
    }
    EXPECT_EQ(Relation(std::move(buffer)), expected) << "arity " << arity;
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

// Model test: random operations applied to a Relation and to a
// std::set<Tuple>, over arities 0-5, must agree after every step on the
// contents, iteration order, size(), ==, < and ToString().
class RelationModelTest : public ::testing::TestWithParam<int> {
 protected:
  using Model = std::set<Tuple>;

  Tuple RandomTuple() {
    Tuple t;
    for (int a = 0; a < arity_; ++a) t.push_back(Value(rng_.Range(1, 4)));
    return t;
  }

  // A relation built from a buffer of random rows, repeats included.
  Relation RandomRelation(Model* model) {
    RowBuffer rows(arity_);
    int n = static_cast<int>(rng_.Range(0, 12));
    for (int i = 0; i < n; ++i) {
      Tuple t = RandomTuple();
      rows.Append(t);
      model->insert(t);
    }
    return Relation(std::move(rows));
  }

  static std::string ModelString(const Model& m, int arity) {
    if (arity == 0) return m.empty() ? "false" : "true";
    std::string out = "{";
    for (const Tuple& t : m) {
      if (out.size() > 1) out += ", ";
      out += TupleToString(t);
    }
    return out + "}";
  }

  void ExpectSame(const Relation& r, const Model& m) {
    ASSERT_EQ(r.arity(), arity_);
    ASSERT_EQ(r.size(), m.size());
    EXPECT_EQ(r.empty(), m.empty());
    EXPECT_EQ(r.tuples().size(), m.size());
    std::size_t i = 0;
    for (TupleRef t : r.tuples()) {
      ASSERT_EQ(t.size(), static_cast<std::size_t>(arity_));
      EXPECT_EQ(t, r.tuples()[i]);
      ++i;
    }
    auto it = m.begin();
    for (TupleRef t : r.tuples()) {
      EXPECT_EQ(t, *it);
      EXPECT_TRUE(r.Contains(t));
      ++it;
    }
    EXPECT_EQ(r.ToString(), ModelString(m, arity_));
    EXPECT_EQ(r, Relation(arity_, std::vector<Tuple>(m.begin(), m.end())));
  }

  // == and < against a second relation agree with the models'.
  void ExpectSameOrder(const Relation& a, const Model& ma, const Relation& b,
                       const Model& mb) {
    EXPECT_EQ(a == b, ma == mb);
    EXPECT_EQ(a != b, ma != mb);
    EXPECT_EQ(a < b, ma < mb);
    EXPECT_EQ(b < a, mb < ma);
  }

  Rng rng_{0};
  int arity_ = 0;
};

TEST_P(RelationModelTest, RandomOperationsMatchSetModel) {
  arity_ = GetParam();
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    rng_ = Rng(seed * 1000 + static_cast<std::uint64_t>(arity_));
    Model model;
    Relation r = RandomRelation(&model);
    ExpectSame(r, model);
    for (int step = 0; step < 60; ++step) {
      SCOPED_TRACE("seed " + std::to_string(seed) + ", step " +
                   std::to_string(step));
      Model other_model;
      Relation other = RandomRelation(&other_model);
      ExpectSameOrder(r, model, other, other_model);
      switch (rng_.Range(0, 11)) {
        case 0: {
          Tuple t = RandomTuple();
          EXPECT_EQ(r.Insert(t), model.insert(t).second);
          break;
        }
        case 1: {
          Tuple t = RandomTuple();
          EXPECT_EQ(r.Erase(t), model.erase(t) == 1);
          break;
        }
        case 2: {
          Tuple t = RandomTuple();
          EXPECT_EQ(r.Contains(t), model.count(t) == 1);
          break;
        }
        case 3: {
          Model added_model;
          for (const Tuple& t : other_model) {
            if (model.insert(t).second) added_model.insert(t);
          }
          Relation added = r.InsertNew(other);
          ExpectSame(added, added_model);
          break;
        }
        case 4: {
          r = r.Union(other);
          model.insert(other_model.begin(), other_model.end());
          break;
        }
        case 5: {
          Model kept;
          std::set_intersection(model.begin(), model.end(),
                                other_model.begin(), other_model.end(),
                                std::inserter(kept, kept.end()));
          r = r.Intersect(other);
          model = kept;
          break;
        }
        case 6: {
          Model kept;
          std::set_difference(model.begin(), model.end(), other_model.begin(),
                              other_model.end(),
                              std::inserter(kept, kept.end()));
          r = r.Difference(other);
          model = kept;
          break;
        }
        case 7: {
          auto includes = [](const Model& big, const Model& small) {
            return std::includes(big.begin(), big.end(), small.begin(),
                                 small.end());
          };
          EXPECT_EQ(r.IsSubsetOf(other), includes(other_model, model));
          EXPECT_EQ(other.IsSubsetOf(r), includes(model, other_model));
          EXPECT_TRUE(r.IsSubsetOf(r));
          break;
        }
        case 8: {
          std::set<Value> universe;
          for (std::int64_t v = 1; v <= 4; ++v) {
            if (rng_.Range(0, 2) != 0) universe.insert(Value(v));
          }
          Instance d(Schema{{"R", arity_}});
          d.Set("R", r);
          r = d.RestrictTo(universe).Get("R");
          Model kept;
          for (const Tuple& t : model) {
            if (std::all_of(t.begin(), t.end(), [&](Value v) {
                  return universe.count(v) == 1;
                })) {
              kept.insert(t);
            }
          }
          model = kept;
          break;
        }
        case 9: {
          // Collapses two values into one, so rows collide.
          std::int64_t from = rng_.Range(1, 4);
          std::int64_t to = rng_.Range(1, 4);
          auto map = [&](Value v) { return v.id == from ? Value(to) : v; };
          r = r.Apply(map);
          Model mapped;
          for (Tuple t : model) {
            for (Value& v : t) v = map(v);
            mapped.insert(t);
          }
          model = mapped;
          break;
        }
        case 10: {
          // Self-aliasing: the row is one of the relation's own.
          if (r.empty()) break;
          std::size_t i =
              static_cast<std::size_t>(rng_.Range(0, r.size() - 1));
          EXPECT_FALSE(r.Insert(r.tuples()[i]));
          break;
        }
        case 11: {
          if (r.empty()) break;
          Tuple front = r.tuples().front();
          EXPECT_TRUE(r.Erase(r.tuples().front()));
          model.erase(front);
          break;
        }
      }
      ExpectSame(r, model);
      if (HasFatalFailure()) return;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Arities, RelationModelTest,
                         ::testing::Values(0, 1, 2, 3, 4, 5));

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
