#ifndef VQDR_CQ_MATCHER_H_
#define VQDR_CQ_MATCHER_H_

#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "cq/conjunctive_query.h"
#include "cq/ucq.h"
#include "data/instance.h"
#include "guard/budget.h"

namespace vqdr {

/// A variable assignment (a homomorphism from query variables to dom).
using Binding = std::map<std::string, Value>;

/// One homomorphism delivered by ForEachMatch, as a view of the matcher's
/// dense variable slots: slot i holds the value of variable names()[i]. The
/// slots are the variables of the atoms in order of first occurrence, then
/// the variables only `initial` binds, in name order; the table is fixed for
/// the whole ForEachMatch call. A Match is valid only inside the callback
/// that receives it.
class Match {
 public:
  Match(const std::vector<std::string>& names,
        const std::vector<Value>& values)
      : names_(&names), values_(&values) {}

  Value operator[](std::size_t slot) const { return (*values_)[slot]; }

  /// The slot → variable name table.
  const std::vector<std::string>& names() const { return *names_; }

  /// The slot of variable `name`, or -1 when the match does not bind it.
  int SlotOf(const std::string& name) const;

  /// The match as a name-keyed map: every variable of the atoms plus every
  /// variable of `initial`. For witnesses, explain records and tests.
  Binding ToBinding() const;

 private:
  const std::vector<std::string>* names_;
  const std::vector<Value>* values_;
};

/// Enumerates every assignment of the variables of `atoms` extending
/// `initial` under which each atom's image is a fact of `db` (i.e. every
/// homomorphism from the atom set into `db`). Invokes `on_match` per match;
/// a false return stops the enumeration. Returns true if the enumeration ran
/// to completion, false if stopped early.
///
/// This single routine powers CQ evaluation, homomorphism search between
/// instances, containment tests, the chase and Datalog rule application.
///
/// The search is an indexed join (DESIGN.md §12) that always forward-checks,
/// backjumps on conflicts (for up to 64 atoms) and breaks value symmetry.
/// Each pruning rule drops only subtrees with no homomorphism, so the
/// matches arrive in the order of the naive backtracking oracle in
/// tests/matcher_oracle.h.
///
/// `budget`, when non-null, is polled once per backtracking node (one step
/// per node), so a deadline or cancellation lands promptly even when the
/// join is exponential. A stopped budget aborts the enumeration with a
/// false return; callers must treat that as "no answer", not "no match".
bool ForEachMatch(const std::vector<Atom>& atoms, const Instance& db,
                  const Binding& initial,
                  const std::function<bool(const Match&)>& on_match,
                  guard::Budget* budget = nullptr);

/// The non-join part of a query or rule body — head terms, disequalities and
/// negated atoms — compiled to the slots of one ForEachMatch call. Build it
/// on the call's first match and reuse it for the rest of that call.
class CompiledBody {
 public:
  /// Negated atoms are tested against `db`, which must outlive the body; a
  /// predicate absent from its schema denotes an empty relation, so such an
  /// atom always passes.
  CompiledBody(const Match& m, const std::vector<Term>& head,
               const std::vector<TermComparison>& disequalities,
               const std::vector<Atom>& negated, const Instance& db);

  /// True when every disequality holds and no negated atom's image is a
  /// fact of `db`.
  bool Passes(const Match& m);

  /// Appends the head image of `m` to `out`.
  void AppendHead(const Match& m, RowBuffer& out) const;

 private:
  // A term as a slot index, or -1 for the constant beside it.
  struct SlotTerm {
    int slot = -1;
    Value constant;
  };
  struct NegatedAtom {
    const Relation* relation;
    std::vector<SlotTerm> args;
  };

  static SlotTerm Compile(const Term& t, const Match& m);
  static Value Resolve(const SlotTerm& t, const Match& m) {
    return t.slot >= 0 ? m[static_cast<std::size_t>(t.slot)] : t.constant;
  }

  std::vector<SlotTerm> head_;
  std::vector<std::pair<SlotTerm, SlotTerm>> disequalities_;
  std::vector<NegatedAtom> negated_;
  Tuple scratch_;
};

/// Q(D) for a safe conjunctive query (handles =, ≠ and safe negation).
/// Aborts on unsafe queries; unsatisfiable queries evaluate to empty.
Relation EvaluateCq(const ConjunctiveQuery& q, const Instance& db);

/// Q(D) for a safe UCQ: union of the disjuncts' answers.
Relation EvaluateUcq(const UnionQuery& q, const Instance& db);

/// True iff `tuple` ∈ Q(D). For Boolean queries pass the empty tuple.
/// With a non-null `budget` that stops mid-match, the return value is
/// meaningless — check budget->Stopped() before trusting it.
///
/// With a non-null `witness`, a true return leaves in `*witness` the full
/// homomorphism (over the variables of q.PropagateEqualities()) that maps
/// the query into db with head image `tuple` — the certificate the explain
/// layer records and replays. Untouched on a false return.
bool CqAnswerContains(const ConjunctiveQuery& q, const Instance& db,
                      TupleRef tuple, guard::Budget* budget = nullptr,
                      Binding* witness = nullptr);

/// True iff the Boolean query is satisfied (head arity must be 0).
bool CqHolds(const ConjunctiveQuery& q, const Instance& db);

}  // namespace vqdr

#endif  // VQDR_CQ_MATCHER_H_
