#include "cq/canonical.h"

#include "base/check.h"
#include "cq/matcher.h"

namespace vqdr {

FrozenQuery Freeze(const ConjunctiveQuery& q, ValueFactory& factory) {
  VQDR_CHECK(q.IsPureCq()) << "Freeze requires a pure CQ: " << q.ToString();
  // Advance the factory past every constant of the query before minting
  // frozen values. Constants() deliberately scans the head and the =/≠ side
  // conditions as well as the body atoms, so a constant that appears *only*
  // in the head (legal: languages with access to dom values) can never
  // collide with a fresh frozen value either. Callers that freeze q against
  // other objects carrying constants (view definitions, partner queries)
  // must note those constants themselves — see BuildChaseChain and
  // SweepCanonicalDbs.
  for (Value c : q.Constants()) factory.NoteUsed(c);

  FrozenQuery result;
  result.instance = Instance(q.BodySchema());

  auto freeze_term = [&](const Term& t) -> Value {
    if (t.is_const()) return t.constant();
    auto it = result.var_to_value.find(t.var());
    if (it != result.var_to_value.end()) return it->second;
    Value fresh = factory.Fresh();
    result.var_to_value.emplace(t.var(), fresh);
    return fresh;
  };

  Tuple fact;  // reused across atoms
  for (const Atom& atom : q.atoms()) {
    fact.clear();
    for (const Term& t : atom.args) fact.push_back(freeze_term(t));
    result.instance.AddFact(atom.predicate, fact);
  }
  for (const Term& t : q.head_terms()) {
    // Head variables must occur in the body for safe CQs; freeze_term would
    // otherwise mint a value not present in [Q], which breaks the chase
    // machinery, so we insist on safety here.
    if (t.is_var()) {
      VQDR_CHECK(result.var_to_value.count(t.var()) > 0)
          << "unsafe head variable " << t.var();
    }
    result.frozen_head.push_back(freeze_term(t));
  }
  return result;
}

ConjunctiveQuery InstanceToQuery(const Instance& instance, const Tuple& head,
                                 const std::set<Value>& constants,
                                 const std::string& head_name) {
  // Variable naming, and why it cannot collide (the memo fingerprints key on
  // this query, so collisions would silently conflate distinct values):
  //  - Distinct non-constant values get distinct names: ids >= 0 map to
  //    "v<id>" and ids < 0 map to "vn<-(id+1)>", both injective, and the two
  //    ranges are disjoint because no decimal rendering starts with 'n'.
  //  - A generated name can never capture a constant: constants are emitted
  //    as Term::Const and compared by value id, never by name. A constant
  //    whose *interned parser name* happens to be "v7" is unrelated to the
  //    generated variable "v7" — names of parser constants live in NamePool,
  //    not in Term.
  //  - Collisions with variables of other queries are impossible because the
  //    result is a standalone query; any later combination goes through
  //    RenameVariables (e.g. ExpandRewriting renames apart with "@<copy>").
  auto to_term = [&constants](Value v) -> Term {
    if (constants.count(v) > 0) return Term::Const(v);
    if (v.id < 0) return Term::Var("vn" + std::to_string(-(v.id + 1)));
    return Term::Var("v" + std::to_string(v.id));
  };

  std::vector<Term> head_terms;
  head_terms.reserve(head.size());
  for (Value v : head) head_terms.push_back(to_term(v));

  ConjunctiveQuery q(head_name, std::move(head_terms));
  for (const RelationDecl& decl : instance.schema().decls()) {
    for (TupleRef fact : instance.Get(decl.name).tuples()) {
      Atom atom;
      atom.predicate = decl.name;
      atom.args.reserve(fact.size());
      for (Value v : fact) atom.args.push_back(to_term(v));
      q.AddAtom(std::move(atom));
    }
  }
  return q;
}

std::optional<std::map<Value, Value>> FindInstanceHomomorphism(
    const Instance& from, const Instance& to,
    const std::map<Value, Value>& fixed, const std::set<Value>& constants) {
  // Convert `from` into a set of atoms: non-constant values become variables
  // named after their id, then reuse the query matcher.
  auto var_name = [](Value v) { return "h" + std::to_string(v.id); };
  std::vector<Atom> atoms;
  for (const RelationDecl& decl : from.schema().decls()) {
    for (TupleRef fact : from.Get(decl.name).tuples()) {
      Atom atom;
      atom.predicate = decl.name;
      for (Value v : fact) {
        if (constants.count(v) > 0) {
          atom.args.push_back(Term::Const(v));
        } else {
          atom.args.push_back(Term::Var(var_name(v)));
        }
      }
      atoms.push_back(std::move(atom));
    }
  }

  Binding initial;
  for (const auto& [source, target] : fixed) {
    if (constants.count(source) > 0) {
      // A fixed constant must map to itself; anything else is unsatisfiable.
      if (source != target) return std::nullopt;
      continue;
    }
    initial.emplace(var_name(source), target);
  }

  // The first match suffices: read it back value by value through its slots.
  std::optional<std::map<Value, Value>> hom;
  ForEachMatch(atoms, to, initial, [&](const Match& m) {
    hom.emplace();
    for (Value v : from.ActiveDomain()) {
      if (constants.count(v) > 0) {
        (*hom)[v] = v;
        continue;
      }
      int slot = m.SlotOf(var_name(v));
      if (slot >= 0) {
        (*hom)[v] = m[static_cast<std::size_t>(slot)];
      } else {
        // Value fixed by `fixed` but not occurring in any fact.
        auto fx = fixed.find(v);
        (*hom)[v] = fx != fixed.end() ? fx->second : v;
      }
    }
    return false;
  });
  return hom;
}

}  // namespace vqdr
