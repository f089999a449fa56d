#ifndef VQDR_CORE_FINITE_SEARCH_H_
#define VQDR_CORE_FINITE_SEARCH_H_

#include <optional>

#include "data/instance.h"
#include "gen/enumerate.h"
#include "guard/budget.h"
#include "views/view_set.h"

namespace vqdr {

/// Bounded search for *finite*-determinacy counterexamples. Finite
/// determinacy is undecidable already for UCQs (Theorem 4.5), so the
/// library offers the two sound half-tests the theory permits:
///
///  * positive: unrestricted determinacy (core/determinacy.h) implies
///    finite determinacy;
///  * negative: an explicit pair D₁, D₂ with V(D₁)=V(D₂), Q(D₁)≠Q(D₂)
///    refutes it. This header searches for such pairs exhaustively over all
///    instances within a domain bound.

/// A refuting pair.
struct DeterminacyCounterexample {
  Instance d1{Schema{}};
  Instance d2{Schema{}};
};

/// Verdict of a bounded search.
enum class SearchVerdict {
  /// No counterexample exists within the bound (determinacy holds on the
  /// searched fragment; silence, not proof).
  kNoneWithinBound,
  /// A counterexample was found: determinacy refuted outright.
  kCounterexampleFound,
  /// The instance budget ran out before covering the space.
  kBudgetExhausted,
};

struct DeterminacySearchResult {
  SearchVerdict verdict = SearchVerdict::kNoneWithinBound;
  std::optional<DeterminacyCounterexample> counterexample;
  /// The serial-order prefix length this verdict rests on: with a
  /// counterexample at enumeration index j this is j + 1, otherwise the
  /// number of instances covered. Deterministic at every thread count (it
  /// is computed from the merged per-worker records, never from a shared
  /// counter delta that concurrent searches could pollute). The
  /// `search.instances` obs counter separately sums the *actual* work across
  /// workers, which can exceed this value when workers race past the
  /// earliest conflict before the pruning hint lands.
  std::uint64_t instances_examined = 0;

  /// Why the search ended. kComplete for a covered space or a found
  /// counterexample; a budget stop reason (deadline/steps/memory/cancel) or
  /// kInternalError otherwise. Never kComplete when verdict is
  /// kBudgetExhausted, and the examined prefix is always honest: everything
  /// counted was actually searched.
  guard::Outcome outcome = guard::Outcome::kComplete;
};

/// Enumerates every instance over `base` within `options`, groups by view
/// image, and reports the first group on which Q disagrees. Reports
/// liveness through obs::ReportProgress ("search.instances"); a progress
/// callback returning false stops the search with kBudgetExhausted.
///
/// With options.threads > 1 the instance space is sharded across a
/// work-stealing pool; the merge is deterministic and lowest-index-wins, so
/// the verdict *and* the counterexample pair are identical to the serial
/// sweep's. threads == 1 runs the original serial code path unchanged.
DeterminacySearchResult SearchDeterminacyCounterexample(
    const ViewSet& views, const Query& q, const Schema& base,
    const EnumerationOptions& options);

/// A monotonicity violation of Q_V: V(D₁) ⊆ V(D₂) but Q(D₁) ⊄ Q(D₂).
/// Exhibits the paper's Propositions 5.8/5.12 phenomena. Only meaningful
/// when V determines Q on the searched fragment (callers should check).
struct MonotonicityViolation {
  Instance d1{Schema{}};
  Instance d2{Schema{}};
  Instance view_image1{Schema{}};
  Instance view_image2{Schema{}};
};

struct MonotonicitySearchResult {
  SearchVerdict verdict = SearchVerdict::kNoneWithinBound;
  std::optional<MonotonicityViolation> violation;
  std::uint64_t instances_examined = 0;

  /// Why the search ended; see DeterminacySearchResult::outcome.
  guard::Outcome outcome = guard::Outcome::kComplete;
};

/// Searches for a pair witnessing non-monotonicity of the induced mapping
/// Q_V. Quadratic in the number of enumerated instances — keep bounds small.
/// With options.threads > 1 both the instance evaluation and the pair scan
/// shard across a work-stealing pool; the merged violation is the serial
/// row-major first hit.
MonotonicitySearchResult SearchMonotonicityViolation(
    const ViewSet& views, const Query& q, const Schema& base,
    const EnumerationOptions& options);

}  // namespace vqdr

#endif  // VQDR_CORE_FINITE_SEARCH_H_
