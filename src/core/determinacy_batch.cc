#include "core/determinacy_batch.h"

#include "obs/context.h"
#include "obs/trace.h"

namespace vqdr {

std::vector<UnrestrictedDeterminacyResult> DecideUnrestrictedDeterminacyBatch(
    const std::vector<DeterminacyBatchItem>& items,
    const memo::MemoOptions& memo) {
  return DecideUnrestrictedDeterminacyBatchGoverned(items, nullptr, memo)
      .results;
}

DeterminacyBatchResult DecideUnrestrictedDeterminacyBatchGoverned(
    const std::vector<DeterminacyBatchItem>& items, guard::Budget* budget,
    const memo::MemoOptions& memo) {
  obs::OpScope op(obs::OpKind::kBatch, "determinacy.batch", budget);
  VQDR_TRACE_SPAN("determinacy.batch");
  DeterminacyBatchResult batch;
  batch.results.resize(items.size());

  for (std::size_t i = 0; i < items.size(); ++i) {
    // Once the budget has stopped, the remaining items are marked skipped
    // instead of decided.
    if (budget != nullptr && budget->Stopped()) {
      batch.results[i].outcome = budget->stop_reason();
      continue;
    }
    batch.results[i] = DecideUnrestrictedDeterminacy(items[i].views,
                                                     items[i].query, budget,
                                                     memo);
    // One step per decided item, so step budgets and cancel-at-step-N
    // faults see batch granularity too.
    guard::Check(budget);
    obs::OpHeartbeat();
  }
  for (const UnrestrictedDeterminacyResult& r : batch.results) {
    batch.outcome = guard::MergeOutcome(batch.outcome, r.outcome);
    if (guard::IsComplete(r.outcome)) ++batch.items_completed;
  }
  return batch;
}

}  // namespace vqdr
