#ifndef VQDR_CQ_MATCHER_H_
#define VQDR_CQ_MATCHER_H_

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "cq/conjunctive_query.h"
#include "cq/ucq.h"
#include "data/instance.h"
#include "guard/budget.h"

namespace vqdr {

/// A variable assignment (a homomorphism from query variables to dom).
using Binding = std::map<std::string, Value>;

/// Per-call knobs for the indexed-join homomorphism search (DESIGN.md §12).
/// The pruning toggles exist for differential testing and benchmarks; all of
/// them are solution-set- and order-preserving, so flipping them never
/// changes observable results.
struct MatcherOptions {
  /// Prune a candidate when some unmatched atom's candidate domain becomes
  /// empty under the extended binding.
  bool forward_checking = true;
  /// On a failed level whose conflict set excludes the current level, skip
  /// the remaining candidates at this level (they fail identically).
  bool conflict_backjumping = true;
  /// Skip a candidate tuple when a symmetric tuple (equal up to an
  /// interchange-class automorphism of the target instance, seeded from the
  /// WL value coloring) already failed at this level.
  bool symmetry_breaking = true;
};

/// Enumerates every assignment of the variables of `atoms` extending
/// `initial` under which each atom's image is a fact of `db` (i.e. every
/// homomorphism from the atom set into `db`). Invokes `on_match` per match;
/// a false return stops the enumeration. Returns true if the enumeration ran
/// to completion, false if stopped early.
///
/// This single routine powers CQ evaluation, homomorphism search between
/// instances, containment tests, and the chase.
///
/// `budget`, when non-null, is polled once per backtracking node (one step
/// per node), so a deadline or cancellation lands promptly even when the
/// join is exponential. A stopped budget aborts the enumeration with a
/// false return; callers must treat that as "no answer", not "no match".
bool ForEachMatch(const std::vector<Atom>& atoms, const Instance& db,
                  const Binding& initial,
                  const std::function<bool(const Binding&)>& on_match,
                  guard::Budget* budget = nullptr);

/// Pruning-toggle overload; the default-argument form above routes here
/// with MatcherOptions{}.
bool ForEachMatch(const std::vector<Atom>& atoms, const Instance& db,
                  const Binding& initial,
                  const std::function<bool(const Binding&)>& on_match,
                  guard::Budget* budget, const MatcherOptions& options);

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
                      const Tuple& tuple, guard::Budget* budget = nullptr,
                      Binding* witness = nullptr);

/// True iff the Boolean query is satisfied (head arity must be 0).
bool CqHolds(const ConjunctiveQuery& q, const Instance& db);

}  // namespace vqdr

#endif  // VQDR_CQ_MATCHER_H_
