#ifndef VQDR_CORE_DETERMINACY_H_
#define VQDR_CORE_DETERMINACY_H_

#include <optional>

#include "cq/conjunctive_query.h"
#include "data/instance.h"
#include "guard/budget.h"
#include "memo/memo.h"
#include "obs/explain.h"
#include "views/view_set.h"

namespace vqdr {

/// Result of the unrestricted-case determinacy decision for CQ views and a
/// CQ query (Theorems 3.3/3.7 of the paper).
struct UnrestrictedDeterminacyResult {
  /// Whether V ↠ Q over unrestricted (finite or infinite) instances.
  /// Unrestricted determinacy implies finite determinacy, so a true answer
  /// is also a sound finite-determinacy certificate; a false answer says
  /// nothing about the finite case (their equivalence for CQs is the
  /// paper's central open problem, Theorem 5.11).
  bool determined = false;

  /// S = V([Q]): the canonical view image — the frozen body of the
  /// canonical rewriting Q_V (Proposition 3.5).
  Instance canonical_view_image{Schema{}};

  /// The frozen head x̄ (image of Q's head terms in [Q]).
  Tuple frozen_head;

  /// D' = V_∅^{-1}(S): the chased-back inverse used by the decision test
  /// x̄ ∈ Q(D').
  Instance chase_inverse{Schema{}};

  /// The canonical rewriting Q_V over σ_V with [Q_V] = S. Present iff
  /// determined; by Proposition 3.5 it satisfies Q = Q_V ∘ V.
  std::optional<ConjunctiveQuery> canonical_rewriting;

  /// Why the decision ended. `determined` is meaningful only when this is
  /// kComplete — a budget-stopped decision reports the partial chase (the
  /// fields computed so far) and never fabricates a verdict.
  guard::Outcome outcome = guard::Outcome::kComplete;
};

/// Decides V ↠ Q in the unrestricted case (Theorem 3.7): computes
/// S = V([Q]), chases back D' = V_∅^{-1}(S), and tests x̄ ∈ Q(D').
/// Requires pure CQ views and query.
///
/// `budget`, when non-null, bounds the chase-back and the decision match;
/// on a trip the result carries outcome != kComplete and whatever was
/// already computed (canonical image, partial inverse).
///
/// `memo` controls result caching: the full result (verdict, canonical
/// image, inverse, rewriting) is cached under an exact key — the decision
/// builds its own value factory, so equal inputs replay byte-identically —
/// and only kComplete outcomes are ever installed. See DESIGN.md §9.
///
/// `explain`, when non-null, receives the decision's provenance: a kDecision
/// event carrying either the replayable homomorphism witnessing x̄ ∈ Q(D')
/// (determined) or the chased-back D' that refutes it (not determined), plus
/// kMemo events for cache probes.
UnrestrictedDeterminacyResult DecideUnrestrictedDeterminacy(
    const ViewSet& views, const ConjunctiveQuery& q,
    guard::Budget* budget = nullptr, const memo::MemoOptions& memo = {},
    obs::ExplainLog* explain = nullptr);

}  // namespace vqdr

#endif  // VQDR_CORE_DETERMINACY_H_
