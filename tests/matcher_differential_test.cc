// Differential battery: the indexed homomorphism engine vs the naive
// backtracking oracle (tests/matcher_oracle.h, DESIGN.md §12). The contract
// under test is strict: both engines must deliver the SAME homomorphisms in
// the SAME order — not merely agree on match/no-match — because witnesses,
// first-found enumeration prefixes, and every downstream verdict are
// byte-derived from that sequence. The production entry points built on the
// matcher (EvaluateCq, CqAnswerContains, FindInstanceHomomorphism,
// CqContainedIn) are checked against answers computed here from the
// oracle's enumeration.

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "base/rng.h"
#include "cq/canonical.h"
#include "cq/containment.h"
#include "cq/explain_bridge.h"
#include "cq/matcher.h"
#include "data/instance.h"
#include "gen/random_instance.h"
#include "gen/random_query.h"
#include "gen/workloads.h"
#include "matcher_oracle.h"
#include "obs/explain.h"

namespace vqdr {
namespace {

Term V(const std::string& name) { return Term::Var(name); }
Term C(std::int64_t id) { return Term::Const(Value(id)); }

ConjunctiveQuery MakeCq(std::vector<Term> head, std::vector<Atom> atoms) {
  ConjunctiveQuery q("Q", std::move(head));
  for (Atom& a : atoms) q.AddAtom(std::move(a));
  return q;
}

ConjunctiveQuery Normalize(const ConjunctiveQuery& q) {
  bool satisfiable = true;
  ConjunctiveQuery normalized = q.PropagateEqualities(&satisfiable);
  EXPECT_TRUE(satisfiable);
  return normalized;
}

// The engine under test or the oracle.
enum class Engine { kIndexed, kOracle };

// Runs one engine over `atoms`; a false on_match return stops it. The
// indexed engine's slot view is compared through its ToBinding() map.
bool Run(Engine engine, const std::vector<Atom>& atoms, const Instance& db,
         const Binding& initial,
         const std::function<bool(const Binding&)>& on_match) {
  if (engine == Engine::kOracle) {
    return oracle::ForEachMatch(atoms, db, initial, on_match);
  }
  return ForEachMatch(atoms, db, initial, [&](const Match& m) {
    return on_match(m.ToBinding());
  });
}

// Full enumeration through one engine: the exact on_match sequence.
std::vector<Binding> Enumerate(const std::vector<Atom>& atoms,
                               const Instance& db, const Binding& initial,
                               Engine engine) {
  std::vector<Binding> out;
  bool completed = Run(engine, atoms, db, initial, [&](const Binding& b) {
    out.push_back(b);
    return true;
  });
  EXPECT_TRUE(completed);
  return out;
}

std::optional<Binding> FirstMatch(const std::vector<Atom>& atoms,
                                  const Instance& db, const Binding& initial,
                                  Engine engine) {
  std::optional<Binding> out;
  Run(engine, atoms, db, initial, [&](const Binding& b) {
    out = b;
    return false;
  });
  return out;
}

// Resolves a term under a full binding.
Value Resolve(const Term& t, const Binding& binding) {
  return t.is_const() ? t.constant() : binding.at(t.var());
}

// The oracle's answer to a pure CQ: the head image of every homomorphism
// the oracle enumerates.
Relation OracleEvaluate(const ConjunctiveQuery& q, const Instance& db) {
  ConjunctiveQuery normalized = Normalize(q);
  EXPECT_FALSE(normalized.UsesDisequality() || normalized.UsesNegation());
  Relation result(q.head_arity());
  for (const Binding& b :
       Enumerate(normalized.atoms(), db, Binding{}, Engine::kOracle)) {
    Tuple answer;
    for (const Term& t : normalized.head_terms()) {
      answer.push_back(Resolve(t, b));
    }
    result.Insert(answer);
  }
  return result;
}

// The binding that pins `head` to `tuple` (constants must agree, a repeated
// variable must meet equal values); nullopt when no binding can.
std::optional<Binding> HeadBinding(const std::vector<Term>& head,
                                   const Tuple& tuple) {
  Binding binding;
  for (std::size_t i = 0; i < tuple.size(); ++i) {
    if (head[i].is_const()) {
      if (head[i].constant() != tuple[i]) return std::nullopt;
      continue;
    }
    auto [it, inserted] = binding.emplace(head[i].var(), tuple[i]);
    if (!inserted && it->second != tuple[i]) return std::nullopt;
  }
  return binding;
}

// The oracle's witness for `tuple` ∈ Q(D) of a pure CQ: its first
// homomorphism with the head pinned to `tuple`.
std::optional<Binding> OracleWitness(const ConjunctiveQuery& q,
                                     const Instance& db, const Tuple& tuple) {
  ConjunctiveQuery normalized = Normalize(q);
  std::optional<Binding> initial = HeadBinding(normalized.head_terms(), tuple);
  if (!initial.has_value()) return std::nullopt;
  return FirstMatch(normalized.atoms(), db, *initial, Engine::kOracle);
}

// Asserts the two engines produce identical enumeration sequences for the
// atoms of `q` over `db`, and that EvaluateCq returns the oracle's answer.
void ExpectEngineAgreement(const ConjunctiveQuery& q, const Instance& db,
                           const std::string& context) {
  ConjunctiveQuery normalized = Normalize(q);
  std::vector<Binding> oracle =
      Enumerate(normalized.atoms(), db, Binding{}, Engine::kOracle);
  std::vector<Binding> indexed =
      Enumerate(normalized.atoms(), db, Binding{}, Engine::kIndexed);
  ASSERT_EQ(oracle.size(), indexed.size()) << context;
  for (std::size_t i = 0; i < oracle.size(); ++i) {
    ASSERT_EQ(oracle[i], indexed[i]) << context << " at match #" << i;
  }
  EXPECT_EQ(OracleEvaluate(q, db), EvaluateCq(q, db)) << context;
}

Schema DiffSchema() { return Schema{{"E", 2}, {"P", 1}, {"T", 3}}; }

// ---------------------------------------------------------------------------
// Seeded random battery: >= 500 (query, instance) pairs across a grid of
// query shapes and instance densities. Full-sequence equality each time.
// ---------------------------------------------------------------------------

TEST(MatcherDifferential, SeededRandomPairsAgree) {
  int pairs = 0;
  for (std::uint64_t seed = 1; seed <= 520; ++seed) {
    Rng rng(seed * 7919);
    RandomCqOptions qopt;
    qopt.schema = DiffSchema();
    qopt.min_atoms = 1;
    qopt.max_atoms = 2 + static_cast<int>(seed % 4);  // up to 5 atoms
    qopt.variable_pool = 2 + static_cast<int>(seed % 5);
    qopt.head_arity = static_cast<int>(seed % 3);  // includes boolean CQs
    ConjunctiveQuery q = RandomCq(rng, qopt);

    RandomInstanceOptions iopt;
    iopt.domain_size = 3 + static_cast<int>(seed % 7);
    iopt.tuples_per_relation = 4 + static_cast<int>(seed % 24);
    Instance db = RandomInstance(qopt.schema, rng, iopt);

    ExpectEngineAgreement(q, db, "seed " + std::to_string(seed));
    ++pairs;
  }
  EXPECT_GE(pairs, 500);
}

TEST(MatcherDifferential, FirstFoundHomomorphismOrderPreserved) {
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    Rng rng(seed * 104729);
    RandomCqOptions qopt;
    qopt.schema = DiffSchema();
    qopt.max_atoms = 4;
    qopt.variable_pool = 5;
    ConjunctiveQuery q = RandomCq(rng, qopt);
    RandomInstanceOptions iopt;
    iopt.domain_size = 6;
    iopt.tuples_per_relation = 18;
    Instance db = RandomInstance(qopt.schema, rng, iopt);

    ConjunctiveQuery normalized = Normalize(q);
    std::optional<Binding> oracle =
        FirstMatch(normalized.atoms(), db, Binding{}, Engine::kOracle);
    std::optional<Binding> indexed =
        FirstMatch(normalized.atoms(), db, Binding{}, Engine::kIndexed);
    ASSERT_EQ(oracle.has_value(), indexed.has_value()) << "seed " << seed;
    if (oracle.has_value()) {
      EXPECT_EQ(*oracle, *indexed) << "seed " << seed;
    }
  }
}

// ---------------------------------------------------------------------------
// Adversarial shapes.
// ---------------------------------------------------------------------------

TEST(MatcherDifferential, SelfJoinsAndRepeatedVariables) {
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    Rng rng(seed);
    Schema schema{{"E", 2}};
    RandomInstanceOptions iopt;
    iopt.domain_size = 5;
    iopt.tuples_per_relation = 12;
    Instance db = RandomInstance(schema, rng, iopt);

    // Diagonal self-join, 2-cycle, duplicated atom, and a mix.
    ConjunctiveQuery diag = MakeCq({V("x")}, {{"E", {V("x"), V("x")}}});
    ConjunctiveQuery cyc = MakeCq({V("x"), V("y")},
                                  {{"E", {V("x"), V("y")}},
                                   {"E", {V("y"), V("x")}}});
    ConjunctiveQuery dup = MakeCq({V("x"), V("y")},
                                  {{"E", {V("x"), V("y")}},
                                   {"E", {V("x"), V("y")}}});
    ConjunctiveQuery mix = MakeCq({V("x"), V("y")},
                                  {{"E", {V("x"), V("x")}},
                                   {"E", {V("x"), V("y")}}});
    for (const ConjunctiveQuery& q : {diag, cyc, dup, mix}) {
      ExpectEngineAgreement(q, db,
                            q.ToString() + " seed " + std::to_string(seed));
    }
  }
}

TEST(MatcherDifferential, ConstantsInAtoms) {
  Schema schema{{"E", 2}, {"P", 1}};
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    Rng rng(seed * 31);
    RandomInstanceOptions iopt;
    iopt.domain_size = 4;  // small domain so the constants actually hit
    iopt.tuples_per_relation = 10;
    Instance db = RandomInstance(schema, rng, iopt);
    ConjunctiveQuery from1 = MakeCq({V("x")}, {{"E", {C(1), V("x")}}});
    ConjunctiveQuery to2 = MakeCq({V("x")}, {{"E", {V("x"), C(2)}},
                                             {"P", {V("x")}}});
    ConjunctiveQuery ground = MakeCq({}, {{"E", {C(1), C(2)}}});
    ConjunctiveQuery loop3 = MakeCq({V("x")}, {{"E", {V("x"), V("x")}},
                                               {"E", {V("x"), C(3)}}});
    // A constant outside the instance domain: zero matches both ways.
    ConjunctiveQuery absent = MakeCq({V("x")}, {{"E", {C(99), V("x")}}});
    for (const ConjunctiveQuery& q : {from1, to2, ground, loop3, absent}) {
      ExpectEngineAgreement(q, db,
                            q.ToString() + " seed " + std::to_string(seed));
    }
  }
}

TEST(MatcherDifferential, BooleanAndDisconnectedBodies) {
  Schema schema{{"E", 2}, {"P", 1}};
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    Rng rng(seed * 131);
    RandomInstanceOptions iopt;
    iopt.domain_size = 5;
    iopt.tuples_per_relation = 8;
    Instance db = RandomInstance(schema, rng, iopt);
    ConjunctiveQuery bool_edge = MakeCq({}, {{"E", {V("x"), V("y")}}});
    ConjunctiveQuery bool_disc = MakeCq({}, {{"E", {V("x"), V("y")}},
                                             {"P", {V("z")}}});
    ConjunctiveQuery cross = MakeCq({V("x"), V("z")},
                                    {{"E", {V("x"), V("y")}},
                                     {"P", {V("z")}}});  // cross product
    ConjunctiveQuery three = MakeCq({}, {{"E", {V("x"), V("y")}},
                                         {"E", {V("u"), V("v")}},
                                         {"P", {V("w")}}});
    for (const ConjunctiveQuery& q : {bool_edge, bool_disc, cross, three}) {
      ExpectEngineAgreement(q, db,
                            q.ToString() + " seed " + std::to_string(seed));
    }
  }
}

TEST(MatcherDifferential, DegenerateInputs) {
  Schema schema{{"E", 2}};
  Instance empty_db(schema);
  Instance db(schema);
  db.AddFact("E", {Value(1), Value(2)});

  // Empty atom list: exactly one match, the initial binding, both engines.
  for (Engine e : {Engine::kOracle, Engine::kIndexed}) {
    std::vector<Binding> ms = Enumerate({}, db, Binding{}, e);
    ASSERT_EQ(ms.size(), 1u);
    EXPECT_TRUE(ms[0].empty());
  }

  std::vector<Atom> edge{{"E", {V("x"), V("y")}}};

  // Atom over an empty relation: no matches, enumeration completes.
  EXPECT_TRUE(
      Enumerate(edge, empty_db, Binding{}, Engine::kOracle).empty());
  EXPECT_TRUE(
      Enumerate(edge, empty_db, Binding{}, Engine::kIndexed).empty());

  // Predicate missing from the schema entirely: treated as empty relation.
  Instance narrow{Schema{{"P", 1}}};
  EXPECT_TRUE(
      Enumerate(edge, narrow, Binding{}, Engine::kOracle).empty());
  EXPECT_TRUE(
      Enumerate(edge, narrow, Binding{}, Engine::kIndexed).empty());

  // Pre-bound initial binding, satisfiable and not; variables that only the
  // initial binding mentions ride along into every match.
  Binding hit{{"x", Value(1)}};
  Binding miss{{"x", Value(7)}};
  Binding extra{{"a", Value(5)}, {"x", Value(1)}, {"zz", Value(9)}};
  EXPECT_EQ(Enumerate(edge, db, hit, Engine::kOracle),
            Enumerate(edge, db, hit, Engine::kIndexed));
  EXPECT_EQ(Enumerate(edge, db, miss, Engine::kOracle),
            Enumerate(edge, db, miss, Engine::kIndexed));
  EXPECT_EQ(Enumerate(edge, db, extra, Engine::kOracle),
            Enumerate(edge, db, extra, Engine::kIndexed));
  EXPECT_EQ(Enumerate({}, db, extra, Engine::kOracle),
            Enumerate({}, db, extra, Engine::kIndexed));
}

// ---------------------------------------------------------------------------
// The pruning rules together are order-preserving: with forward checking,
// backjumping and symmetry breaking on, the engine yields the oracle's
// sequence.
// ---------------------------------------------------------------------------

TEST(MatcherDifferential, PruningTogglesPreserveSequence) {
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    Rng rng(seed * 271);
    RandomCqOptions qopt;
    qopt.schema = DiffSchema();
    qopt.max_atoms = 5;
    qopt.variable_pool = 4;
    ConjunctiveQuery q = Normalize(RandomCq(rng, qopt));
    RandomInstanceOptions iopt;
    iopt.domain_size = 5;
    iopt.tuples_per_relation = 14;
    Instance db = RandomInstance(qopt.schema, rng, iopt);

    std::vector<Binding> oracle =
        Enumerate(q.atoms(), db, Binding{}, Engine::kOracle);
    ASSERT_EQ(oracle, Enumerate(q.atoms(), db, Binding{}, Engine::kIndexed))
        << "seed " << seed;
  }
}

// ---------------------------------------------------------------------------
// Witness extraction: CqAnswerContains returns the oracle's first witness
// byte for byte, and the witness replays through the engine-independent
// explain bridge.
// ---------------------------------------------------------------------------

TEST(MatcherDifferential, WitnessesIdenticalAndReplayable) {
  int verified = 0;
  for (std::uint64_t seed = 1; seed <= 120; ++seed) {
    Rng rng(seed * 613);
    RandomCqOptions qopt;
    qopt.schema = DiffSchema();
    qopt.max_atoms = 3;
    qopt.variable_pool = 4;
    qopt.head_arity = 1;
    ConjunctiveQuery q = RandomCq(rng, qopt);
    RandomInstanceOptions iopt;
    iopt.domain_size = 5;
    iopt.tuples_per_relation = 10;
    Instance db = RandomInstance(qopt.schema, rng, iopt);

    Relation answers = EvaluateCq(q, db);
    for (TupleRef t : answers.tuples()) {
      std::optional<Binding> oracle_witness = OracleWitness(q, db, t);
      Binding indexed_witness;
      bool indexed_found =
          CqAnswerContains(q, db, t, nullptr, &indexed_witness);
      ASSERT_TRUE(oracle_witness.has_value()) << "seed " << seed;
      ASSERT_TRUE(indexed_found) << "seed " << seed;
      ASSERT_EQ(*oracle_witness, indexed_witness) << "seed " << seed;

      obs::ExplainWitness witness =
          MakeContainmentWitness(q, db, t, indexed_witness);
      std::string error;
      EXPECT_TRUE(witness.Verify(&error)) << "seed " << seed << ": " << error;
      ++verified;
    }
    // Negative side: a tuple outside the answer must be rejected by both.
    Tuple absent{Value(997)};
    EXPECT_EQ(OracleWitness(q, db, absent).has_value(),
              CqAnswerContains(q, db, absent));
  }
  EXPECT_GT(verified, 50);
}

// ---------------------------------------------------------------------------
// Instance-level homomorphism search and containment end to end, including
// the threaded sweep at 2 and 8 workers (the PAR label runs this under
// tsan).
// ---------------------------------------------------------------------------

// The oracle's homomorphism from `from` to `to`: every value of `from`
// becomes the variable "h<id>", and the oracle's first match over the
// resulting atoms is read back as a value map.
std::optional<std::map<Value, Value>> OracleInstanceHomomorphism(
    const Instance& from, const Instance& to) {
  auto var = [](Value v) { return "h" + std::to_string(v.id); };
  std::vector<Atom> atoms;
  for (const RelationDecl& decl : from.schema().decls()) {
    for (TupleRef fact : from.Get(decl.name).tuples()) {
      Atom atom{decl.name, {}};
      for (Value v : fact) atom.args.push_back(Term::Var(var(v)));
      atoms.push_back(std::move(atom));
    }
  }
  std::optional<Binding> found =
      FirstMatch(atoms, to, Binding{}, Engine::kOracle);
  if (!found.has_value()) return std::nullopt;
  std::map<Value, Value> hom;
  for (Value v : from.ActiveDomain()) hom[v] = found->at(var(v));
  return hom;
}

// Chandra–Merlin through the oracle, for pure CQs: q1 ⊆ q2 iff q2 maps into
// the frozen body of q1 with its head onto q1's frozen head.
bool OracleContainedIn(const ConjunctiveQuery& q1,
                       const ConjunctiveQuery& q2) {
  EXPECT_FALSE(q1.UsesDisequality() || q2.UsesDisequality());
  ValueFactory factory;
  for (Value c : q2.Constants()) factory.NoteUsed(c);
  FrozenQuery frozen = Freeze(q1, factory);
  return OracleWitness(q2, frozen.instance, frozen.frozen_head).has_value();
}

TEST(MatcherDifferential, InstanceHomomorphismAgrees) {
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    Rng rng(seed * 37);
    Schema schema{{"E", 2}};
    RandomInstanceOptions small;
    small.domain_size = 4;
    small.tuples_per_relation = 5;
    RandomInstanceOptions big;
    big.domain_size = 6;
    big.tuples_per_relation = 16;
    Instance from = RandomInstance(schema, rng, small);
    Instance to = RandomInstance(schema, rng, big);

    auto oracle = OracleInstanceHomomorphism(from, to);
    auto indexed = FindInstanceHomomorphism(from, to);
    ASSERT_EQ(oracle.has_value(), indexed.has_value()) << "seed " << seed;
    if (oracle.has_value()) {
      EXPECT_EQ(*oracle, *indexed) << "seed " << seed;
    }
  }
}

TEST(MatcherDifferential, ContainmentVerdictsAgreeWithOracle) {
  for (std::uint64_t seed = 1; seed <= 25; ++seed) {
    Rng rng(seed * 911);
    RandomCqOptions qopt;
    qopt.schema = Schema{{"E", 2}, {"P", 1}};
    qopt.max_atoms = 3;
    qopt.variable_pool = 3;
    ConjunctiveQuery q1 = RandomCq(rng, qopt);
    ConjunctiveQuery q2 = RandomCq(rng, qopt);

    EXPECT_EQ(OracleContainedIn(q1, q2), CqContainedIn(q1, q2))
        << "seed " << seed;

    // The UCQ entry: on the one-disjunct unions it is Chandra–Merlin again;
    // with a second random disjunct on each side, Sagiv–Yannakakis — every
    // left disjunct maps into some right disjunct.
    UnionQuery u1(q1);
    UnionQuery u2(q2);
    EXPECT_EQ(OracleContainedIn(q1, q2), UcqContainedIn(u1, u2))
        << "seed " << seed;
    u1.AddDisjunct(RandomCq(rng, qopt));
    u2.AddDisjunct(RandomCq(rng, qopt));
    bool expected = true;
    for (const ConjunctiveQuery& left : u1.disjuncts()) {
      bool mapped = false;
      for (const ConjunctiveQuery& right : u2.disjuncts()) {
        mapped = mapped || OracleContainedIn(left, right);
      }
      expected = expected && mapped;
    }
    EXPECT_EQ(expected, UcqContainedIn(u1, u2)) << "seed " << seed;
  }
}

// Chain/cycle workloads from the bench suite — the hom-dominated shapes the
// speedup claim is measured on must agree too, not just random soup.
TEST(MatcherDifferential, WorkloadShapesAgree) {
  // Chain length is capped at 8: the oracle's full enumeration over the
  // random graph grows fast with n, and this binary also runs under tsan.
  for (int n : {2, 4, 6, 8}) {
    Instance db = RandomGraph(10, 30, /*seed=*/static_cast<std::uint64_t>(n));
    ExpectEngineAgreement(ChainQuery(n), db, "chain " + std::to_string(n));
    ExpectEngineAgreement(CycleQuery(std::max(2, n / 2)), db,
                          "cycle " + std::to_string(n));
    ExpectEngineAgreement(StarQuery(std::max(2, n / 3)), db,
                          "star " + std::to_string(n));
  }
}

}  // namespace
}  // namespace vqdr
