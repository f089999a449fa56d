#ifndef VQDR_CORE_REWRITING_H_
#define VQDR_CORE_REWRITING_H_

#include <optional>

#include "cq/conjunctive_query.h"
#include "cq/ucq.h"
#include "gen/enumerate.h"
#include "views/view_set.h"

namespace vqdr {

/// The *expansion* of a rewriting R (a CQ over the view schema σ_V) with
/// respect to CQ views: the CQ over the base schema σ obtained by replacing
/// every view atom with a fresh copy of the view body, unifying the view
/// head with the atom's arguments. R ∘ V ≡ expansion(R) on all instances.
ConjunctiveQuery ExpandRewriting(const ConjunctiveQuery& r,
                                 const ViewSet& views);

/// Expansion of a UCQ rewriting: union of the disjuncts' expansions.
UnionQuery ExpandUcqRewriting(const UnionQuery& r, const ViewSet& views);

/// Existence and synthesis of an *equivalent* CQ rewriting — the problem of
/// Levy–Mendelzon–Sagiv–Srivastava [22], solved here via the paper's chase
/// test: an equivalent CQ rewriting exists iff the canonical rewriting Q_V
/// of Proposition 3.5 is one (any rewriting's expansion factors through
/// V_∅^{-1}(S), so Q_V works whenever anything does). Since finite and
/// unrestricted CQ equivalence coincide, the result serves both settings —
/// and by Theorem 3.3, existence is *equivalent* to unrestricted
/// determinacy. The rewriting returned is Q_V, minimised by dropping view
/// atoms while its expansion stays equivalent to Q. The bare decision is
/// DecideUnrestrictedDeterminacy (core/determinacy.h).
struct CqRewritingResult {
  bool exists = false;
  /// A minimised equivalent rewriting (present iff exists).
  std::optional<ConjunctiveQuery> rewriting;
};
CqRewritingResult FindCqRewriting(const ViewSet& views,
                                  const ConjunctiveQuery& q);

/// Equivalent UCQ rewriting of a UCQ query over CQ views ([22], Thm 3.9):
/// the canonical per-disjunct rewritings work iff any UCQ rewriting does.
struct UcqRewritingResult {
  bool exists = false;
  std::optional<UnionQuery> rewriting;
};
UcqRewritingResult FindUcqRewriting(const ViewSet& views, const UnionQuery& q);

/// Semantic validation of a claimed rewriting: checks Q(D) = R(V(D)) over
/// every instance enumerated within `options`. Returns the first violating
/// D if any. This is the library's language-agnostic rewriting oracle (used
/// where the paper's arguments are non-constructive, e.g. Theorem 3.1).
struct RewritingValidation {
  bool valid = true;
  bool exhaustive = false;  // search space fully covered
  std::optional<Instance> counterexample;
};
RewritingValidation ValidateRewriting(const ViewSet& views, const Query& q,
                                      const Query& r, const Schema& base,
                                      const EnumerationOptions& options);

}  // namespace vqdr

#endif  // VQDR_CORE_REWRITING_H_
