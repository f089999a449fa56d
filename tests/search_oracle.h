#ifndef VQDR_TESTS_SEARCH_ORACLE_H_
#define VQDR_TESTS_SEARCH_ORACLE_H_

// The differential oracle for the bounded searches (core/finite_search.h):
// the plain serial sweeps, which walk ForEachInstance in enumeration order
// and stop at the first hit. Linked only by the PAR differential battery
// (tests/par_differential_test.cc); no production code reaches it.
//
// Behavioural contract: at threads = 1 the production searches return this
// engine's result field for field — verdict, outcome, the refuting pair or
// violation, instances_examined — ungoverned, under a step budget (charging
// the same checkpoints), and with an allocation fault armed at
// "search.instances"; at every other thread count the ungoverned result is
// the same.

#include "core/finite_search.h"

namespace vqdr::oracle {

/// Groups instances by view image and stops at the first instance whose
/// query answer differs from its group's first. A throw mid-sweep (an
/// injected allocation failure, say) ends in kInternalError over the
/// instances finished before it.
DeterminacySearchResult SearchDeterminacyCounterexample(
    const ViewSet& views, const Query& q, const Schema& base,
    const EnumerationOptions& options);

/// Evaluates every instance of the prefix, then scans pairs row-major (one
/// budget step per row) for the first (a, b) with V(a) ⊆ V(b) but
/// Q(a) ⊄ Q(b).
MonotonicitySearchResult SearchMonotonicityViolation(
    const ViewSet& views, const Query& q, const Schema& base,
    const EnumerationOptions& options);

}  // namespace vqdr::oracle

#endif  // VQDR_TESTS_SEARCH_ORACLE_H_
