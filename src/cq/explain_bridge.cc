#include "cq/explain_bridge.h"

namespace vqdr {

namespace {

obs::ExplainTerm ToExplainTerm(const Term& t) {
  if (t.is_const()) return obs::ExplainTerm::Const(t.constant().id);
  return obs::ExplainTerm::Var(t.var());
}

}  // namespace

std::vector<obs::ExplainFact> ToExplainFacts(const Instance& instance) {
  std::vector<obs::ExplainFact> facts;
  for (const RelationDecl& decl : instance.schema().decls()) {
    for (TupleRef tuple : instance.Get(decl.name).tuples()) {
      obs::ExplainFact fact;
      fact.relation = decl.name;
      fact.tuple.reserve(tuple.size());
      for (Value v : tuple) fact.tuple.push_back(v.id);
      facts.push_back(std::move(fact));
    }
  }
  return facts;
}

obs::ExplainAtom ToExplainAtom(const Atom& atom) {
  obs::ExplainAtom out;
  out.relation = atom.predicate;
  out.args.reserve(atom.args.size());
  for (const Term& t : atom.args) out.args.push_back(ToExplainTerm(t));
  return out;
}

obs::ExplainWitness MakeContainmentWitness(const ConjunctiveQuery& q,
                                           const Instance& db,
                                           const Tuple& expected_head,
                                           const Binding& binding) {
  // Normalize exactly as the matcher does, so atoms/disequalities refer to
  // the variables the binding actually assigns.
  bool satisfiable = true;
  ConjunctiveQuery normalized = q.PropagateEqualities(&satisfiable);

  obs::ExplainWitness witness;
  for (const Atom& atom : normalized.atoms()) {
    witness.atoms.push_back(ToExplainAtom(atom));
  }
  for (const Term& t : normalized.head_terms()) {
    witness.head.push_back(ToExplainTerm(t));
  }
  for (const TermComparison& c : normalized.disequalities()) {
    witness.disequalities.emplace_back(ToExplainTerm(c.lhs),
                                       ToExplainTerm(c.rhs));
  }
  for (const auto& [var, value] : binding) {
    witness.binding.emplace(var, value.id);
  }
  witness.instance = ToExplainFacts(db);
  witness.expected_head.reserve(expected_head.size());
  for (Value v : expected_head) witness.expected_head.push_back(v.id);
  return witness;
}

}  // namespace vqdr
