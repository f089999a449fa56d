// Differential battery for the Datalog evaluator (datalog/program.h): the
// semi-naïve production evaluator against a naive fixpoint oracle over
// seeded random programs and instances. The oracle applies every rule to
// the whole instance, stratum by stratum, until nothing changes, and matches
// rule bodies with the naive backtracking matcher from tests/matcher_oracle,
// so it shares neither the delta bookkeeping nor the indexed engine with the
// code under test.
//
// The comparison is on Instance::ToString(): same facts, and the same
// relations listed in the same order, so a working relation of the
// evaluator (a semi-naïve delta) leaking into the result fails it too.

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "base/rng.h"
#include "datalog/program.h"
#include "gen/random_instance.h"
#include "matcher_oracle.h"

namespace vqdr {
namespace {

Value Resolve(const Term& t, const Binding& binding) {
  return t.is_const() ? t.constant() : binding.at(t.var());
}

Tuple Ground(const std::vector<Term>& args, const Binding& binding) {
  Tuple out;
  for (const Term& t : args) out.push_back(Resolve(t, binding));
  return out;
}

// The least stratum assignment with stratum(p) >= stratum(q) for every
// positive IDB body atom q of a rule for p, and > for every negated one.
// The battery draws only stratified programs, so the iteration converges.
std::map<std::string, int> Strata(const DatalogProgram& program) {
  std::set<std::string> idb = program.IdbPredicates();
  std::map<std::string, int> stratum;
  for (const std::string& p : idb) stratum[p] = 0;
  for (bool changed = true; changed;) {
    changed = false;
    for (const DatalogRule& r : program.rules()) {
      int& s = stratum[r.head.predicate];
      for (const Atom& a : r.positive) {
        if (idb.count(a.predicate) != 0 && stratum[a.predicate] > s) {
          s = stratum[a.predicate];
          changed = true;
        }
      }
      for (const Atom& a : r.negated) {
        if (idb.count(a.predicate) != 0 && stratum[a.predicate] >= s) {
          s = stratum[a.predicate] + 1;
          changed = true;
        }
      }
    }
  }
  return stratum;
}

// The naive fixpoint. Its result lists the EDB schema, then every
// predicate of the rules in order of appearance (head, positive, negated):
// the relations DatalogProgram::Evaluate documents.
Instance NaiveEvaluate(const DatalogProgram& program, const Instance& edb) {
  Schema schema = edb.schema();
  for (const DatalogRule& r : program.rules()) {
    schema.Add(r.head.predicate, r.head.arity());
    for (const Atom& a : r.positive) schema.Add(a.predicate, a.arity());
    for (const Atom& a : r.negated) schema.Add(a.predicate, a.arity());
  }
  Instance db(schema);
  for (const RelationDecl& d : edb.schema().decls()) {
    db.Set(d.name, edb.Get(d.name));
  }
  std::map<std::string, int> stratum = Strata(program);
  int max_stratum = 0;
  for (const auto& [p, s] : stratum) max_stratum = std::max(max_stratum, s);
  for (int s = 0; s <= max_stratum; ++s) {
    for (bool changed = true; changed;) {
      changed = false;
      for (const DatalogRule& r : program.rules()) {
        if (stratum[r.head.predicate] != s) continue;
        std::vector<Tuple> derived;
        oracle::ForEachMatch(r.positive, db, Binding{},
                             [&](const Binding& b) {
                               for (const TermComparison& c : r.disequalities) {
                                 if (Resolve(c.lhs, b) == Resolve(c.rhs, b)) {
                                   return true;
                                 }
                               }
                               for (const Atom& a : r.negated) {
                                 if (db.HasFact(a.predicate, Ground(a.args, b))) {
                                   return true;
                                 }
                               }
                               derived.push_back(Ground(r.head.args, b));
                               return true;
                             });
        for (const Tuple& t : derived) {
          if (db.AddFact(r.head.predicate, t)) changed = true;
        }
      }
    }
  }
  return db;
}

// What a drawn program exercises; the battery asserts each is covered.
struct Features {
  int linear = 0;      // rule with exactly one same-stratum IDB body atom
  int nonlinear = 0;   // rule with two or more
  int mutual = 0;      // same-stratum IDB body atom other than the head
  int constants = 0;   // constant in a body or head
  int disequality = 0;
  int edb_negation = 0;
  int idb_negation = 0;
};

const Schema& EdbSchema() {
  static const Schema* schema = new Schema{{"E", 2}, {"P", 1}};
  return *schema;
}

// IDB predicates with their arities; a program puts each at a level and
// lets a rule read same-or-lower levels positively, lower levels negated —
// stratified by construction.
const std::vector<RelationDecl>& IdbDecls() {
  static const auto* decls = new std::vector<RelationDecl>{
      {"A", 2}, {"B", 2}, {"C", 1}, {"D", 1}};
  return *decls;
}

Term DrawTerm(Rng& rng, const std::vector<std::string>& pool,
              Features& features) {
  if (rng.Chance(1, 10)) {
    ++features.constants;
    return Term::Const(Value(rng.Range(1, 3)));
  }
  return Term::Var(pool[rng.Below(pool.size())]);
}

// A term for a head, negated atom or disequality: a positive-body variable
// (so the rule stays safe) or, rarely, a constant.
Term DrawCovered(Rng& rng, const std::vector<std::string>& covered,
                 Features& features) {
  if (covered.empty() || rng.Chance(1, 12)) {
    ++features.constants;
    return Term::Const(Value(rng.Range(1, 3)));
  }
  return Term::Var(covered[rng.Below(covered.size())]);
}

DatalogProgram DrawProgram(Rng& rng, Features& features) {
  std::map<std::string, int> level;
  for (const RelationDecl& d : IdbDecls()) {
    level[d.name] = static_cast<int>(rng.Below(3));
  }
  const std::vector<std::string> pool{"x", "y", "z", "w"};
  DatalogProgram program;
  for (const RelationDecl& head : IdbDecls()) {
    // Body atom candidates: EDB, and IDB at the same or a lower level.
    std::vector<RelationDecl> positive = EdbSchema().decls();
    std::vector<RelationDecl> negatable = EdbSchema().decls();
    for (const RelationDecl& d : IdbDecls()) {
      if (level[d.name] <= level[head.name]) positive.push_back(d);
      if (level[d.name] < level[head.name]) negatable.push_back(d);
    }
    int rules = 1 + static_cast<int>(rng.Below(3));
    for (int k = 0; k < rules; ++k) {
      DatalogRule rule;
      int atoms = 1 + static_cast<int>(rng.Below(3));
      int same_level = 0;
      bool other_same_level = false;
      std::set<std::string> covered_set;
      for (int i = 0; i < atoms; ++i) {
        // Bias the first atom towards EDB so most rules can fire.
        const RelationDecl& d =
            i == 0 && rng.Chance(2, 3)
                ? EdbSchema().decls()[rng.Below(EdbSchema().size())]
                : positive[rng.Below(positive.size())];
        Atom atom{d.name, {}};
        for (int j = 0; j < d.arity; ++j) {
          atom.args.push_back(DrawTerm(rng, pool, features));
          if (atom.args.back().is_var()) covered_set.insert(atom.args.back().var());
        }
        if (level.count(d.name) != 0 && level[d.name] == level[head.name]) {
          ++same_level;
          if (d.name != head.name) other_same_level = true;
        }
        rule.positive.push_back(std::move(atom));
      }
      std::vector<std::string> covered(covered_set.begin(), covered_set.end());
      rule.head.predicate = head.name;
      for (int j = 0; j < head.arity; ++j) {
        rule.head.args.push_back(DrawCovered(rng, covered, features));
      }
      if (rng.Chance(1, 4)) {
        rule.disequalities.push_back({DrawCovered(rng, covered, features),
                                      DrawCovered(rng, covered, features)});
        ++features.disequality;
      }
      if (rng.Chance(1, 3)) {
        const RelationDecl& d = negatable[rng.Below(negatable.size())];
        Atom atom{d.name, {}};
        for (int j = 0; j < d.arity; ++j) {
          atom.args.push_back(DrawCovered(rng, covered, features));
        }
        ++(level.count(d.name) != 0 ? features.idb_negation
                                    : features.edb_negation);
        rule.negated.push_back(std::move(atom));
      }
      if (same_level == 1) ++features.linear;
      if (same_level >= 2) ++features.nonlinear;
      if (other_same_level) ++features.mutual;
      program.AddRule(std::move(rule));
    }
  }
  return program;
}

TEST(DatalogDifferential, SeededRandomProgramsMatchNaiveFixpoint) {
  Features features;
  int nonempty_idb = 0;
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    Rng rng(seed * 7177);
    DatalogProgram program = DrawProgram(rng, features);
    ASSERT_TRUE(program.IsStratified()) << program.ToString();

    RandomInstanceOptions iopt;
    iopt.domain_size = 3 + static_cast<int>(seed % 4);
    iopt.tuples_per_relation = 3 + static_cast<int>(seed % 9);
    Instance edb = RandomInstance(EdbSchema(), rng, iopt);

    StatusOr<Instance> got = program.Evaluate(edb);
    ASSERT_TRUE(got.ok()) << got.status().message();
    Instance want = NaiveEvaluate(program, edb);
    ASSERT_EQ(want.ToString(), got->ToString())
        << "seed " << seed << "\n" << program.ToString();
    if (got->TupleCount() > edb.TupleCount()) ++nonempty_idb;
  }
  // The draw must actually reach every construct, and derive facts.
  EXPECT_GT(nonempty_idb, 200);
  EXPECT_GT(features.linear, 50);
  EXPECT_GT(features.nonlinear, 20);
  EXPECT_GT(features.mutual, 20);
  EXPECT_GT(features.constants, 50);
  EXPECT_GT(features.disequality, 50);
  EXPECT_GT(features.edb_negation, 20);
  EXPECT_GT(features.idb_negation, 20);
}

}  // namespace
}  // namespace vqdr
