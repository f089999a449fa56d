#include "cq/conjunctive_query.h"

#include <algorithm>
#include <map>
#include <sstream>

#include "base/check.h"

namespace vqdr {

std::string Atom::ToString() const {
  std::ostringstream out;
  out << predicate << "(";
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (i > 0) out << ", ";
    out << args[i].ToString();
  }
  out << ")";
  return out.str();
}

bool ConjunctiveQuery::UsesConstants() const {
  auto any_const = [](const std::vector<Term>& terms) {
    return std::any_of(terms.begin(), terms.end(),
                       [](const Term& t) { return t.is_const(); });
  };
  if (any_const(head_terms_)) return true;
  for (const Atom& a : atoms_) {
    if (any_const(a.args)) return true;
  }
  for (const Atom& a : negated_atoms_) {
    if (any_const(a.args)) return true;
  }
  for (const TermComparison& c : equalities_) {
    if (c.lhs.is_const() || c.rhs.is_const()) return true;
  }
  for (const TermComparison& c : disequalities_) {
    if (c.lhs.is_const() || c.rhs.is_const()) return true;
  }
  return false;
}

std::vector<std::string> ConjunctiveQuery::AllVariables() const {
  std::vector<std::string> order;
  std::set<std::string> seen;
  auto visit = [&](const Term& t) {
    if (t.is_var() && seen.insert(t.var()).second) order.push_back(t.var());
  };
  for (const Term& t : head_terms_) visit(t);
  for (const Atom& a : atoms_) {
    for (const Term& t : a.args) visit(t);
  }
  for (const Atom& a : negated_atoms_) {
    for (const Term& t : a.args) visit(t);
  }
  for (const TermComparison& c : equalities_) {
    visit(c.lhs);
    visit(c.rhs);
  }
  for (const TermComparison& c : disequalities_) {
    visit(c.lhs);
    visit(c.rhs);
  }
  return order;
}

std::set<std::string> ConjunctiveQuery::PositiveBodyVariables() const {
  std::set<std::string> vars;
  for (const Atom& a : atoms_) {
    for (const Term& t : a.args) {
      if (t.is_var()) vars.insert(t.var());
    }
  }
  return vars;
}

std::set<Value> ConjunctiveQuery::Constants() const {
  std::set<Value> constants;
  auto visit = [&](const Term& t) {
    if (t.is_const()) constants.insert(t.constant());
  };
  for (const Term& t : head_terms_) visit(t);
  for (const Atom& a : atoms_) {
    for (const Term& t : a.args) visit(t);
  }
  for (const Atom& a : negated_atoms_) {
    for (const Term& t : a.args) visit(t);
  }
  for (const TermComparison& c : equalities_) {
    visit(c.lhs);
    visit(c.rhs);
  }
  for (const TermComparison& c : disequalities_) {
    visit(c.lhs);
    visit(c.rhs);
  }
  return constants;
}

bool ConjunctiveQuery::IsSafe() const {
  std::set<std::string> positive = PositiveBodyVariables();
  auto covered = [&](const Term& t) {
    return t.is_const() || positive.count(t.var()) > 0;
  };
  for (const Term& t : head_terms_) {
    if (!covered(t)) return false;
  }
  for (const Atom& a : negated_atoms_) {
    for (const Term& t : a.args) {
      if (!covered(t)) return false;
    }
  }
  for (const TermComparison& c : equalities_) {
    if (!covered(c.lhs) || !covered(c.rhs)) return false;
  }
  for (const TermComparison& c : disequalities_) {
    if (!covered(c.lhs) || !covered(c.rhs)) return false;
  }
  return true;
}

Schema ConjunctiveQuery::BodySchema() const {
  Schema schema;
  for (const Atom& a : atoms_) schema.Add(a.predicate, a.arity());
  for (const Atom& a : negated_atoms_) schema.Add(a.predicate, a.arity());
  return schema;
}

ConjunctiveQuery ConjunctiveQuery::MapTerms(
    const std::function<Term(const Term&)>& map) const {
  auto map_atom = [&map](const Atom& a) {
    Atom result;
    result.predicate = a.predicate;
    result.args.reserve(a.args.size());
    for (const Term& t : a.args) result.args.push_back(map(t));
    return result;
  };
  ConjunctiveQuery result(head_name_, {});
  for (const Term& t : head_terms_) result.head_terms_.push_back(map(t));
  for (const Atom& a : atoms_) result.AddAtom(map_atom(a));
  for (const Atom& a : negated_atoms_) result.AddNegatedAtom(map_atom(a));
  for (const TermComparison& c : equalities_) {
    result.AddEquality(map(c.lhs), map(c.rhs));
  }
  for (const TermComparison& c : disequalities_) {
    result.AddDisequality(map(c.lhs), map(c.rhs));
  }
  return result;
}

ConjunctiveQuery ConjunctiveQuery::RenameVariables(
    const std::function<std::string(const std::string&)>& rename) const {
  return MapTerms([&rename](const Term& t) {
    return t.is_var() ? Term::Var(rename(t.var())) : t;
  });
}

namespace {

// Union-find over terms for equality propagation. Constants are roots and
// distinct constants never merge.
class TermUnification {
 public:
  // Returns false if two distinct constants would be merged.
  bool Unify(const Term& a, const Term& b) {
    Term ra = Find(a);
    Term rb = Find(b);
    if (ra == rb) return true;
    if (ra.is_const() && rb.is_const()) return false;
    if (ra.is_const()) {
      parent_[rb.var()] = ra;
    } else {
      parent_[ra.var()] = rb;
    }
    return true;
  }

  Term Find(const Term& t) {
    if (t.is_const()) return t;
    auto it = parent_.find(t.var());
    if (it == parent_.end()) return t;
    Term root = Find(it->second);
    parent_[t.var()] = root;
    return root;
  }

 private:
  std::map<std::string, Term> parent_;
};

}  // namespace

ConjunctiveQuery ConjunctiveQuery::PropagateEqualities(
    bool* satisfiable) const {
  *satisfiable = true;
  TermUnification uf;
  for (const TermComparison& c : equalities_) {
    if (!uf.Unify(c.lhs, c.rhs)) {
      *satisfiable = false;
    }
  }
  auto map_term = [&uf](const Term& t) { return uf.Find(t); };
  ConjunctiveQuery result(head_name_, {});
  for (const Term& t : head_terms_) result.head_terms_.push_back(map_term(t));
  for (const Atom& a : atoms_) {
    Atom mapped;
    mapped.predicate = a.predicate;
    for (const Term& t : a.args) mapped.args.push_back(map_term(t));
    result.AddAtom(std::move(mapped));
  }
  for (const Atom& a : negated_atoms_) {
    Atom mapped;
    mapped.predicate = a.predicate;
    for (const Term& t : a.args) mapped.args.push_back(map_term(t));
    result.AddNegatedAtom(std::move(mapped));
  }
  for (const TermComparison& c : disequalities_) {
    Term lhs = map_term(c.lhs);
    Term rhs = map_term(c.rhs);
    if (lhs == rhs) {
      *satisfiable = false;
    }
    // Two distinct constants are always unequal: the atom is vacuous.
    if (lhs.is_const() && rhs.is_const() && !(lhs == rhs)) continue;
    result.AddDisequality(lhs, rhs);
  }
  return result;
}

std::string ConjunctiveQuery::ToString() const {
  std::ostringstream out;
  out << head_name_ << "(";
  for (std::size_t i = 0; i < head_terms_.size(); ++i) {
    if (i > 0) out << ", ";
    out << head_terms_[i].ToString();
  }
  out << ") :- ";
  bool first = true;
  auto sep = [&]() {
    if (!first) out << ", ";
    first = false;
  };
  for (const Atom& a : atoms_) {
    sep();
    out << a.ToString();
  }
  for (const Atom& a : negated_atoms_) {
    sep();
    out << "not " << a.ToString();
  }
  for (const TermComparison& c : equalities_) {
    sep();
    out << c.lhs.ToString() << " = " << c.rhs.ToString();
  }
  for (const TermComparison& c : disequalities_) {
    sep();
    out << c.lhs.ToString() << " != " << c.rhs.ToString();
  }
  if (first) out << "true";
  return out.str();
}

bool operator==(const ConjunctiveQuery& a, const ConjunctiveQuery& b) {
  return a.head_name_ == b.head_name_ && a.head_terms_ == b.head_terms_ &&
         a.atoms_ == b.atoms_ && a.negated_atoms_ == b.negated_atoms_ &&
         a.equalities_ == b.equalities_ &&
         a.disequalities_ == b.disequalities_;
}

}  // namespace vqdr
