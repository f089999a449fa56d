// Second property-sweep suite: parser round-trips, SO duality, Datalog
// cross-checks, enumeration counting, chase Lemma 3.4 on random view sets,
// Turing construction sweeps, and twin-vs-direct search agreement.

#include <gtest/gtest.h>

#include "chase/view_inverse.h"
#include "core/determinacy.h"
#include "core/rewriting.h"
#include "data/isomorphism.h"
#include "core/finite_search.h"
#include "core/twin_encoding.h"
#include "cq/canonical.h"
#include "cq/matcher.h"
#include "cq/parser.h"
#include "datalog/program.h"
#include "fo/evaluator.h"
#include "fo/parser.h"
#include "gen/enumerate.h"
#include "gen/random_instance.h"
#include "gen/random_query.h"
#include "gen/workloads.h"
#include "reductions/turing.h"
#include "so/so_query.h"

namespace vqdr {
namespace {

class SeededProperty2 : public ::testing::TestWithParam<std::uint64_t> {};

INSTANTIATE_TEST_SUITE_P(Seeds, SeededProperty2,
                         ::testing::Range<std::uint64_t>(1, 13));

// --- Parser round trips ---

TEST_P(SeededProperty2, CqParserRoundTrip) {
  Rng rng(GetParam());
  NamePool pool;
  RandomCqOptions options;
  ConjunctiveQuery q = RandomCq(rng, options);
  std::string rendered = CqToString(q, pool);
  auto reparsed = ParseCq(rendered, pool);
  ASSERT_TRUE(reparsed.ok()) << rendered;
  EXPECT_EQ(q, reparsed.value()) << rendered;
}

TEST_P(SeededProperty2, InstanceParserRoundTrip) {
  Rng rng(GetParam());
  NamePool pool;
  // Give the values names first so rendering uses them.
  for (int i = 1; i <= 6; ++i) pool.Intern("n" + std::to_string(i));
  Schema schema{{"E", 2}, {"P", 1}};
  RandomInstanceOptions iopts;
  iopts.domain_size = 6;
  Instance d = RandomInstance(schema, rng, iopts);

  // Render as a fact list and reparse.
  std::ostringstream facts;
  bool first = true;
  for (const RelationDecl& decl : schema.decls()) {
    for (TupleRef t : d.Get(decl.name).tuples()) {
      if (!first) facts << ", ";
      first = false;
      facts << decl.name << "(";
      for (std::size_t i = 0; i < t.size(); ++i) {
        if (i > 0) facts << ", ";
        facts << pool.NameOf(t[i]);
      }
      facts << ")";
    }
  }
  auto reparsed = ParseInstance(facts.str(), schema, pool);
  ASSERT_TRUE(reparsed.ok()) << facts.str();
  EXPECT_EQ(d, reparsed.value());
}

// --- SO duality: ∃S.φ ≡ ¬∀S.¬φ ---

TEST_P(SeededProperty2, SecondOrderDuality) {
  Rng rng(GetParam());
  NamePool pool;
  FoPtr matrix = ParseFo("forall x, y . (E(x, y) -> S(x) | S(y))", pool)
                     .value();
  SoQuery exists_q;
  exists_q.existential = true;
  exists_q.relation_vars = {{"S", 1}};
  exists_q.matrix.formula = matrix;

  SoQuery forall_not;
  forall_not.existential = false;
  forall_not.relation_vars = {{"S", 1}};
  forall_not.matrix.formula = FoFormula::Not(matrix);

  Instance d = RandomGraph(4, 5, GetParam());
  auto lhs = SoSentenceHolds(exists_q, d);
  auto rhs = SoSentenceHolds(forall_not, d);
  ASSERT_TRUE(lhs.ok() && rhs.ok());
  EXPECT_EQ(lhs.value(), !rhs.value());
}

// --- Datalog transitive closure vs CQ chain powers on DAGs ---

TEST_P(SeededProperty2, DatalogTcMatchesChainUnion) {
  NamePool pool;
  DatalogProgram tc =
      ParseDatalog("T(x, y) :- E(x, y); T(x, y) :- E(x, z), T(z, y)", pool)
          .value();
  // A random DAG (edges i -> j only for i < j) with <= 5 nodes: paths have
  // length <= 4, so TC = ∪ chains 1..4.
  Rng rng(GetParam());
  Instance d(Schema{{"E", 2}});
  for (int i = 1; i <= 5; ++i) {
    for (int j = i + 1; j <= 5; ++j) {
      if (rng.Chance(1, 2)) d.AddFact("E", Tuple{Value(i), Value(j)});
    }
  }
  Relation tc_answer = tc.Query(d, "T").value();
  Relation chain_union(2);
  for (int len = 1; len <= 4; ++len) {
    chain_union = chain_union.Union(EvaluateCq(ChainQuery(len), d));
  }
  EXPECT_EQ(tc_answer, chain_union);
}

// --- Enumeration counts ---

TEST(EnumerationCounting, ExactCounts) {
  // One unary relation over {1,2}: 2^2 = 4 instances.
  EnumerationOptions options;
  options.domain_size = 2;
  std::uint64_t count = 0;
  ForEachInstance(Schema{{"P", 1}}, options, [&](const Instance&) {
    ++count;
    return true;
  });
  EXPECT_EQ(count, 4u);

  // P/1 and E/2 over {1,2}: 2^2 * 2^4 = 64.
  count = 0;
  ForEachInstance(Schema{{"P", 1}, {"E", 2}}, options,
                  [&](const Instance&) {
                    ++count;
                    return true;
                  });
  EXPECT_EQ(count, 64u);
}

TEST(EnumerationCounting, IsoReductionShrinks) {
  EnumerationOptions options;
  options.domain_size = 2;
  std::uint64_t all = 0, reduced = 0;
  ForEachInstance(Schema{{"E", 2}}, options, [&](const Instance&) {
    ++all;
    return true;
  });
  ForEachInstanceUpToIso(Schema{{"E", 2}}, options, [&](const Instance&) {
    ++reduced;
    return true;
  });
  EXPECT_EQ(all, 16u);
  EXPECT_LT(reduced, all);
  EXPECT_EQ(reduced, 10u);  // 16 digraphs on 2 labelled nodes → 10 classes
}

TEST(EnumerationCounting, BudgetTruncates) {
  EnumerationOptions options;
  options.domain_size = 2;
  options.max_instances = 5;
  EnumerationOutcome outcome = ForEachInstance(
      Schema{{"E", 2}}, options, [&](const Instance&) { return true; });
  EXPECT_FALSE(outcome.complete);
}

TEST(EnumerationCounting, OversizedRelationDegradesGracefully) {
  std::vector<Value> universe;
  for (int i = 1; i <= 8; ++i) universe.push_back(Value(i));
  // 8^3 = 512 candidate tuples: unenumerable; must report incomplete.
  EnumerationOutcome outcome = ForEachInstanceOver(
      Schema{{"T", 3}}, universe, 100, [&](const Instance&) { return true; });
  EXPECT_FALSE(outcome.complete);
  EXPECT_EQ(outcome.visited, 0u);
}

// --- Lemma 3.4 on random view sets ---

TEST_P(SeededProperty2, Lemma34OnRandomViews) {
  Rng rng(GetParam());
  RandomCqOptions options;
  options.max_atoms = 2;
  ViewSet views = RandomCqViews(rng, options, 2);
  RandomInstanceOptions iopts;
  iopts.domain_size = 3;
  iopts.tuples_per_relation = 4;
  Instance d(ChaseSchema(views, options.schema));
  Instance random_part = RandomInstance(options.schema, rng, iopts);
  for (const RelationDecl& decl : options.schema.decls()) {
    d.Set(decl.name, random_part.Get(decl.name));
  }

  Instance s = views.Apply(d);
  ValueFactory factory;
  Instance empty(d.schema());
  Instance d_prime = ViewInverse(views, empty, s, factory);

  // Lemma 3.4: hom from D' to D fixing adom(D)∩adom(D') values that came
  // from S (all S-values appear in D).
  std::map<Value, Value> fixed;
  for (Value v : s.ActiveDomain()) fixed[v] = v;
  EXPECT_TRUE(FindInstanceHomomorphism(d_prime, d, fixed).has_value())
      << views.ToString();
  // And V(D') ⊇ S.
  EXPECT_TRUE(s.IsSubInstanceOf(views.Apply(d_prime)));
}

// --- Theorem 5.1 sweep over random graphs ---

TEST_P(SeededProperty2, TuringConstructionSweep) {
  SimpleTm tm = ComplementTm();
  Instance g = RandomGraph(3, 4, GetParam());
  Relation graph = g.Get("E");
  auto instance = BuildComputationInstance(tm, graph);
  ASSERT_TRUE(instance.ok()) << instance.status().message();
  EXPECT_TRUE(VerifyComputationInstance(tm, instance.value()));
  Query q = TuringQuery(tm);
  EXPECT_EQ(q.Eval(instance.value()), ComplementWithinAdom(graph));
}

// --- Twin encoding vs direct search on random pairs ---

TEST_P(SeededProperty2, TwinAndDirectSearchAgreeOnRandomPairs) {
  Rng rng(GetParam());
  RandomCqOptions options;
  options.schema = Schema{{"E", 2}};
  options.max_atoms = 2;
  options.variable_pool = 3;
  ViewSet views = RandomCqViews(rng, options, 1);
  ConjunctiveQuery q = RandomCq(rng, options);
  if (!q.IsSafe() || q.atoms().empty()) GTEST_SKIP();

  EnumerationOptions eopts;
  eopts.domain_size = 2;
  auto direct = SearchDeterminacyCounterexample(views, Query::FromCq(q),
                                                options.schema, eopts);
  auto twin =
      BoundedTwinSearch(BuildTwinEncoding(views, Query::FromCq(q),
                                          options.schema),
                        options.schema, eopts);
  EXPECT_EQ(direct.verdict == SearchVerdict::kCounterexampleFound,
            twin.verdict == SearchVerdict::kCounterexampleFound)
      << views.ToString() << q.ToString();
}

// --- Canonical rewriting's frozen body is the view image ---

TEST_P(SeededProperty2, CanonicalRewritingFreezesBackToViewImage) {
  Rng rng(GetParam());
  RandomCqOptions options;
  options.max_atoms = 2;
  ViewSet views = RandomCqViews(rng, options, 2);
  ConjunctiveQuery r = RandomRewriting(rng, views, 2, 1);
  ConjunctiveQuery q = ExpandRewriting(r, views);
  if (!q.IsPureCq() || !q.IsSafe() || q.atoms().empty()) GTEST_SKIP();

  auto det = DecideUnrestrictedDeterminacy(views, q);
  if (!det.determined) GTEST_SKIP();
  ASSERT_TRUE(det.canonical_rewriting.has_value());
  // [Q_V] (re-frozen) is isomorphic to S = V([Q]) by construction.
  ValueFactory factory;
  factory.NoteUsed(Value(det.canonical_view_image.MaxValueId()));
  FrozenQuery frozen = Freeze(*det.canonical_rewriting, factory);
  EXPECT_TRUE(AreIsomorphic(frozen.instance, det.canonical_view_image));
}

// --- Homomorphism laws through the matcher seam (DESIGN.md §12) ---

// Composition: a hom b : Q1 → [Q2] and a hom h : [Q2] → I compose to a hom
// h∘b : Q1 → I. Checked two ways: atom-by-atom membership of the composed
// image, and the matcher finding a hom Q1 → I on its own.
TEST_P(SeededProperty2, HomomorphismCompositionLaw) {
  Rng rng(GetParam());
  RandomCqOptions options;
  options.min_atoms = 2;
  options.max_atoms = 4;
  options.variable_pool = 3;
  ConjunctiveQuery q2 = RandomCq(rng, options);
  // Draw Q1 smaller than Q2 so a hom Q1 -> [Q2] usually exists.
  options.min_atoms = 1;
  options.max_atoms = 2;
  options.variable_pool = 2;
  ConjunctiveQuery q1 = RandomCq(rng, options);

  ValueFactory factory;
  FrozenQuery frozen = Freeze(q2, factory);

  std::optional<Binding> b;
  ForEachMatch(q1.atoms(), frozen.instance, Binding{},
               [&b](const Match& found) {
                 b = found.ToBinding();
                 return false;
               });
  if (!b.has_value()) GTEST_SKIP() << "no hom Q1 -> [Q2]";

  // Dense target so a hom [Q2] -> I usually exists (tiny domain ⇒ most
  // tuples present); retry a few densities before giving up.
  std::optional<std::map<Value, Value>> h;
  Instance i{frozen.instance.schema()};
  for (int tuples = 8; tuples <= 32 && !h.has_value(); tuples *= 2) {
    RandomInstanceOptions iopts;
    iopts.domain_size = 2;
    iopts.tuples_per_relation = tuples;
    i = RandomInstance(frozen.instance.schema(), rng, iopts);
    h = FindInstanceHomomorphism(frozen.instance, i);
  }
  if (!h.has_value()) GTEST_SKIP() << "no hom [Q2] -> I";

  for (const Atom& atom : q1.atoms()) {
    Tuple image;
    for (const Term& t : atom.args) {
      Value via_b = t.is_const() ? t.constant() : b->at(t.var());
      auto hv = h->find(via_b);
      image.push_back(hv != h->end() ? hv->second : via_b);
    }
    EXPECT_TRUE(i.Get(atom.predicate).Contains(image))
        << atom.ToString() << " under h∘b, seed " << GetParam();
  }

  bool direct = false;
  ForEachMatch(q1.atoms(), i, Binding{}, [&direct](const Match&) {
    direct = true;
    return false;
  });
  EXPECT_TRUE(direct) << "composition exists but matcher found no Q1 -> I";
}

// Canonical-instance identity: Q maps into its own frozen body, and the
// freezing assignment itself is the (unique, once pre-bound) witness with
// head image frozen_head.
TEST_P(SeededProperty2, CanonicalInstanceIdentity) {
  Rng rng(GetParam());
  RandomCqOptions options;
  options.max_atoms = 3;
  options.variable_pool = 4;
  ConjunctiveQuery q = RandomCq(rng, options);

  ValueFactory factory;
  FrozenQuery frozen = Freeze(q, factory);

  ASSERT_TRUE(
      CqAnswerContains(q, frozen.instance, frozen.frozen_head))
      << q.ToString();
  // Pre-binding the full freezing assignment must yield exactly the
  // identity match: the frozen assignment IS a hom Q -> [Q].
  std::vector<Binding> matches;
  ForEachMatch(q.atoms(), frozen.instance, frozen.var_to_value,
               [&matches](const Match& found) {
                 matches.push_back(found.ToBinding());
                 return true;
               });
  ASSERT_FALSE(matches.empty()) << q.ToString();
  EXPECT_EQ(matches.front(), frozen.var_to_value) << q.ToString();
}

// Fingerprint invariance: an injective renaming of the instance's values
// yields identical match verdicts and the renamed answer set.
TEST_P(SeededProperty2, MatchVerdictsInvariantUnderIsomorphicRenaming) {
  Rng rng(GetParam());
  RandomCqOptions options;
  options.max_atoms = 3;
  options.variable_pool = 3;
  ConjunctiveQuery q = RandomCq(rng, options);

  RandomInstanceOptions iopts;
  iopts.domain_size = 4;
  iopts.tuples_per_relation = 8;
  Instance d = RandomInstance(options.schema, rng, iopts);

  auto rename = [](Value v) { return Value(v.id + 1000); };
  Instance renamed(d.schema());
  for (const RelationDecl& decl : d.schema().decls()) {
    for (TupleRef t : d.Get(decl.name).tuples()) {
      Tuple image;
      for (Value v : t) image.push_back(rename(v));
      renamed.AddFact(decl.name, image);
    }
  }

  Relation original = EvaluateCq(q, d);
  Relation mapped = EvaluateCq(q, renamed);
  ASSERT_EQ(original.tuples().size(), mapped.tuples().size());
  Relation expected(original.arity());
  for (TupleRef t : original.tuples()) {
    Tuple image;
    for (Value v : t) image.push_back(rename(v));
    expected.Insert(image);
  }
  EXPECT_EQ(expected, mapped) << q.ToString();
}

}  // namespace
}  // namespace vqdr
