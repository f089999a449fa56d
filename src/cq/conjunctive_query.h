#ifndef VQDR_CQ_CONJUNCTIVE_QUERY_H_
#define VQDR_CQ_CONJUNCTIVE_QUERY_H_

#include <functional>
#include <set>
#include <string>
#include <vector>

#include "cq/atom.h"
#include "data/schema.h"

namespace vqdr {

/// A conjunctive query with optional extensions:
///
///   head(x̄) :- R₁(…), …, Rₙ(…)            — CQ (Figure 1)
///   … , s = t                               — CQ=  (equality)
///   … , s != t                              — CQ≠  (disequality)
///   … , not R(…)                            — CQ¬  (safe negation)
///
/// The plain-CQ algorithms of the paper (chase, frozen bodies, unrestricted
/// determinacy) require IsPureCq(); the extended classes appear in the
/// paper's counterexamples (Theorem 4.5, Propositions 5.7/5.12).
class ConjunctiveQuery {
 public:
  ConjunctiveQuery() = default;

  /// Builds a query; `head_terms` are typically variables (constants are
  /// allowed, as in the paper's languages with access to dom values).
  ConjunctiveQuery(std::string head_name, std::vector<Term> head_terms)
      : head_name_(std::move(head_name)), head_terms_(std::move(head_terms)) {}

  const std::string& head_name() const { return head_name_; }
  void set_head_name(std::string name) { head_name_ = std::move(name); }

  const std::vector<Term>& head_terms() const { return head_terms_; }
  std::vector<Term>& mutable_head_terms() { return head_terms_; }
  int head_arity() const { return static_cast<int>(head_terms_.size()); }

  const std::vector<Atom>& atoms() const { return atoms_; }
  const std::vector<Atom>& negated_atoms() const { return negated_atoms_; }
  const std::vector<TermComparison>& equalities() const { return equalities_; }
  const std::vector<TermComparison>& disequalities() const {
    return disequalities_;
  }

  void AddAtom(Atom atom) { atoms_.push_back(std::move(atom)); }
  void AddNegatedAtom(Atom atom) { negated_atoms_.push_back(std::move(atom)); }
  void AddEquality(Term lhs, Term rhs) {
    equalities_.push_back({std::move(lhs), std::move(rhs)});
  }
  void AddDisequality(Term lhs, Term rhs) {
    disequalities_.push_back({std::move(lhs), std::move(rhs)});
  }

  // --- Language classification (Figure 1) ---

  /// True for plain CQ: no =, ≠, ¬.
  bool IsPureCq() const {
    return negated_atoms_.empty() && equalities_.empty() &&
           disequalities_.empty();
  }
  bool UsesEquality() const { return !equalities_.empty(); }
  bool UsesDisequality() const { return !disequalities_.empty(); }
  bool UsesNegation() const { return !negated_atoms_.empty(); }

  /// True if the query mentions constants from dom.
  bool UsesConstants() const;

  // --- Structure ---

  /// All variables, in first-occurrence order (head first, then body).
  std::vector<std::string> AllVariables() const;

  /// Variables occurring in positive body atoms.
  std::set<std::string> PositiveBodyVariables() const;

  /// All constants mentioned anywhere.
  std::set<Value> Constants() const;

  /// Safety (range restriction): every head variable, every variable of a
  /// negated atom, and every variable of a dis/equality occurs in some
  /// positive atom. Unsafe queries are rejected by the evaluator.
  bool IsSafe() const;

  /// The schema induced by the positive and negative body atoms.
  Schema BodySchema() const;

  /// A copy with every term — head, positive and negated atoms, equalities
  /// and disequalities — replaced by `map(term)`: the one term walk behind
  /// variable renaming, identification patterns and rewriting expansion.
  ConjunctiveQuery MapTerms(const std::function<Term(const Term&)>& map) const;

  /// A copy with every variable renamed by `rename`. Renaming must be
  /// injective on the query's variables to preserve meaning.
  ConjunctiveQuery RenameVariables(
      const std::function<std::string(const std::string&)>& rename) const;

  /// Normalizes away equalities: computes the union-find closure of the
  /// equality atoms (constants win over variables), substitutes everywhere,
  /// and drops the equalities. If two distinct constants are equated, the
  /// query is unsatisfiable; `*satisfiable` is set accordingly. Disequalities
  /// s != s make the query unsatisfiable too.
  ConjunctiveQuery PropagateEqualities(bool* satisfiable) const;

  /// "Q(x, y) :- R(x, z), not S(z), x != y".
  std::string ToString() const;

  friend bool operator==(const ConjunctiveQuery& a, const ConjunctiveQuery& b);

 private:
  std::string head_name_ = "Q";
  std::vector<Term> head_terms_;
  std::vector<Atom> atoms_;
  std::vector<Atom> negated_atoms_;
  std::vector<TermComparison> equalities_;
  std::vector<TermComparison> disequalities_;
};

}  // namespace vqdr

#endif  // VQDR_CQ_CONJUNCTIVE_QUERY_H_
