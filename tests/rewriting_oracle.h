#ifndef VQDR_TESTS_REWRITING_ORACLE_H_
#define VQDR_TESTS_REWRITING_ORACLE_H_

// The differential oracle for rewriting synthesis (core/rewriting.h). Linked
// only by the reference-rewriter battery (tests/reference_rewriter_test.cc);
// no production code reaches it.

#include <cstdint>
#include <optional>

#include "cq/conjunctive_query.h"
#include "views/view_set.h"

namespace vqdr::oracle {

/// A brute-force *reference* implementation of equivalent-rewriting search
/// ([22]): enumerate every candidate CQ over the view schema up to the
/// given size bounds and test equivalence of its expansion with Q. By the
/// LMSS bound, a rewriting exists iff one exists with at most |body(Q)|
/// atoms, so with large enough bounds this is complete — but it is
/// exponential and exists purely to cross-validate the chase-based
/// synthesiser FindCqRewriting, which is the production path.
struct ReferenceRewritingOptions {
  /// Max view atoms in a candidate.
  int max_atoms = 2;

  /// Candidate variables are drawn from a pool of this size (plus the head
  /// variables).
  int variable_pool = 3;

  /// Cap on candidates examined.
  std::uint64_t max_candidates = 1ull << 22;
};

struct ReferenceRewritingResult {
  bool exists = false;
  std::optional<ConjunctiveQuery> rewriting;
  /// Whether the candidate space was fully covered (a negative answer is
  /// only meaningful when true).
  bool exhaustive = true;
  std::uint64_t candidates_examined = 0;
};

/// Requires pure CQ views and query.
ReferenceRewritingResult FindCqRewritingByEnumeration(
    const ViewSet& views, const ConjunctiveQuery& q,
    const ReferenceRewritingOptions& options);

}  // namespace vqdr::oracle

#endif  // VQDR_TESTS_REWRITING_ORACLE_H_
