#ifndef VQDR_CQ_CONTAINMENT_H_
#define VQDR_CQ_CONTAINMENT_H_

#include <cstdint>

#include "cq/conjunctive_query.h"
#include "cq/ucq.h"
#include "guard/budget.h"
#include "memo/memo.h"
#include "obs/explain.h"

namespace vqdr {

/// Options for the containment tests.
struct CqContainmentOptions {
  /// Worker count for the identification-pattern sweep that CQ(≠)
  /// containment performs: 1 = the original serial sweep, 0 =
  /// par::DefaultThreads(), N > 1 = fan the patterns across a work-stealing
  /// pool with early exit on the first witness of non-containment. The
  /// verdict is identical at every thread count (it is a conjunction over
  /// patterns, so order cannot matter). Pure CQs have a single canonical
  /// database and never fan out.
  int threads = 1;

  /// Optional resource budget: one step per identification pattern, plus a
  /// poll per matcher backtracking node inside each pattern check. Only the
  /// *Governed entry points honour it; the bool APIs run their governed
  /// twin without it and require completion.
  guard::Budget* budget = nullptr;

  /// Result memoization policy. Containment verdicts are booleans —
  /// invariant under query isomorphism — so they are cached under the
  /// canonical fingerprints of both sides; queries without a fingerprint
  /// (negation, canonicalization over budget) bypass the cache, and
  /// governed sweeps install only kComplete verdicts (witnesses of
  /// non-containment count: they are definitive). See DESIGN.md §9.
  memo::MemoOptions memo;

  /// Optional decision-provenance sink (DESIGN.md §10). When non-null,
  /// every pattern check appends an event: a kWitness with the replayable
  /// homomorphism when the pattern passed, a kRefutation carrying the
  /// canonical database when it failed, plus kMemo events for cache probes.
  /// Appends are internally synchronized, so parallel sweeps share the log
  /// safely. The artifact grows with the identification-pattern count —
  /// attach it to targeted checks, not bulk batteries.
  obs::ExplainLog* explain = nullptr;
};

/// Result of a governed containment test.
struct ContainmentResult {
  /// The verdict. Trustworthy in two cases: outcome == kComplete (the sweep
  /// covered every pattern), or contained == false with any outcome (a
  /// witness of non-containment was found before the stop — witnesses are
  /// definitive). A budget-stopped sweep with no witness reports
  /// contained == true only as "no witness found so far".
  bool contained = true;

  /// kComplete, or why the sweep stopped early.
  guard::Outcome outcome = guard::Outcome::kComplete;

  /// Identification patterns actually checked.
  std::uint64_t patterns_checked = 0;
};

/// Q1 ⊆ Q2 for conjunctive queries (the Chandra–Merlin canonical-instance
/// test [9]). Handles constants and disequalities exactly: with ≠ present,
/// all variable-identification patterns of Q1 consistent with its
/// disequalities are checked (the classical complete test; exponential in
/// the number of variables of Q1). Negation is not supported (aborts).
///
/// For (U)CQ(≠), finite and unrestricted containment coincide, so a single
/// routine serves both settings.
bool CqContainedIn(const ConjunctiveQuery& q1, const ConjunctiveQuery& q2);
bool CqContainedIn(const ConjunctiveQuery& q1, const ConjunctiveQuery& q2,
                   const CqContainmentOptions& options);

/// Governed CQ(≠) containment: honours options.budget and reports a
/// structured outcome instead of requiring the sweep to finish.
ContainmentResult CqContainedInGoverned(const ConjunctiveQuery& q1,
                                        const ConjunctiveQuery& q2,
                                        const CqContainmentOptions& options);

/// Q1 ≡ Q2 (containment both ways).
bool CqEquivalent(const ConjunctiveQuery& q1, const ConjunctiveQuery& q2);

/// UCQ containment (Sagiv–Yannakakis): Q1 ⊆ Q2 iff every canonical instance
/// of every disjunct of Q1 satisfies Q2.
bool UcqContainedIn(const UnionQuery& q1, const UnionQuery& q2);
bool UcqContainedIn(const UnionQuery& q1, const UnionQuery& q2,
                    const CqContainmentOptions& options);

/// Governed UCQ containment; see CqContainedInGoverned.
ContainmentResult UcqContainedInGoverned(const UnionQuery& q1,
                                         const UnionQuery& q2,
                                         const CqContainmentOptions& options);

/// UCQ equivalence.
bool UcqEquivalent(const UnionQuery& q1, const UnionQuery& q2);

/// True if the (pure or ≠-extended) CQ is satisfiable, i.e. has a nonempty
/// answer on some instance.
bool CqSatisfiable(const ConjunctiveQuery& q);

}  // namespace vqdr

#endif  // VQDR_CQ_CONTAINMENT_H_
