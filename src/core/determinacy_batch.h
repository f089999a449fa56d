#ifndef VQDR_CORE_DETERMINACY_BATCH_H_
#define VQDR_CORE_DETERMINACY_BATCH_H_

#include <cstddef>
#include <vector>

#include "core/determinacy.h"
#include "cq/conjunctive_query.h"
#include "guard/budget.h"
#include "views/view_set.h"

namespace vqdr {

/// One (V, Q) pair submitted to the batch decider.
struct DeterminacyBatchItem {
  ViewSet views;
  ConjunctiveQuery query{"Q", {}};
};

/// Decides unrestricted determinacy for every item, in input order, on the
/// calling thread.
///
/// results[i] is exactly DecideUnrestrictedDeterminacy(items[i].views,
/// items[i].query). Each decided item beats the batch's op, so the stall
/// watchdog sees a long batch move. Callers that want decisions to run
/// concurrently make them from their own threads, as vqdr-serve does with
/// one thread per connection; they share the process memo store.
std::vector<UnrestrictedDeterminacyResult> DecideUnrestrictedDeterminacyBatch(
    const std::vector<DeterminacyBatchItem>& items);

/// Result of a governed batch run.
struct DeterminacyBatchResult {
  /// One entry per item, index-aligned. Items the budget skipped (or that
  /// stopped mid-decision) carry their own outcome != kComplete and no
  /// trustworthy `determined` flag.
  std::vector<UnrestrictedDeterminacyResult> results;

  /// The strongest stop reason across the batch; kComplete iff every item
  /// was fully decided.
  guard::Outcome outcome = guard::Outcome::kComplete;

  /// Items whose decisions ran to completion.
  std::size_t items_completed = 0;
};

/// Governed batch: one shared budget envelope across all items. Once the
/// budget trips, remaining items are skipped (their result records the stop
/// reason) and the completed prefix of decisions is returned — identical to
/// what an ungoverned run would have produced for those items. With the
/// process memo switch on, duplicate items hit the cache, and budget-stopped
/// items are never installed.
DeterminacyBatchResult DecideUnrestrictedDeterminacyBatchGoverned(
    const std::vector<DeterminacyBatchItem>& items,
    guard::Budget* budget = nullptr);

}  // namespace vqdr

#endif  // VQDR_CORE_DETERMINACY_BATCH_H_
