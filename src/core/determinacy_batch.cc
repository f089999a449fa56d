#include "core/determinacy_batch.h"

#include <atomic>
#include <cstdint>

#include "obs/context.h"
#include "obs/progress.h"
#include "obs/trace.h"
#include "par/pool.h"

namespace vqdr {

std::vector<UnrestrictedDeterminacyResult> DecideUnrestrictedDeterminacyBatch(
    const std::vector<DeterminacyBatchItem>& items, int threads,
    const memo::MemoOptions& memo) {
  return DecideUnrestrictedDeterminacyBatchGoverned(items, threads, nullptr,
                                                    memo)
      .results;
}

DeterminacyBatchResult DecideUnrestrictedDeterminacyBatchGoverned(
    const std::vector<DeterminacyBatchItem>& items, int threads,
    guard::Budget* budget, const memo::MemoOptions& memo) {
  obs::OpScope op(obs::OpKind::kBatch, "determinacy.batch", budget);
  VQDR_TRACE_SPAN("determinacy.batch");
  DeterminacyBatchResult batch;
  batch.results.resize(items.size());
  const std::uint64_t total = items.size();

  // Decides item i in place; returns false once the budget has stopped (the
  // item is then marked skipped instead of decided).
  auto decide_one = [&items, &batch, budget, &memo](std::size_t i) -> bool {
    if (budget != nullptr && budget->Stopped()) {
      batch.results[i].outcome = budget->stop_reason();
      return false;
    }
    batch.results[i] = DecideUnrestrictedDeterminacy(items[i].views,
                                                     items[i].query, budget,
                                                     memo);
    // One step per decided item, so step budgets and cancel-at-step-N
    // faults see batch granularity too.
    guard::Check(budget);
    return true;
  };

  threads = par::ResolveThreads(threads);
  if (threads > 1 && items.size() > 1) {
    std::atomic<std::uint64_t> done{0};
    std::uint64_t pool_errors = 0;
    // Pre-mark every slot: a task killed before it runs (captured pool
    // exception) leaves the sentinel behind instead of a default result
    // that would read as a completed "not determined" verdict. decide_one
    // overwrites the sentinel on every path it reaches.
    for (UnrestrictedDeterminacyResult& r : batch.results) {
      r.outcome = guard::Outcome::kInternalError;
    }
    {
      par::ThreadPool pool(threads);
      for (std::size_t i = 0; i < items.size(); ++i) {
        pool.Submit([&decide_one, &done, total, i] {
          if (!decide_one(i)) return;
          std::uint64_t completed =
              done.fetch_add(1, std::memory_order_acq_rel) + 1;
          // Progress only: a half-decided batch has no sound meaning, so a
          // false (cancel-requesting) return is deliberately ignored — the
          // budget is the sanctioned way to stop a batch early.
          obs::ReportProgress("determinacy.batch", completed, total);
        });
      }
      pool.Wait();
      pool_errors = pool.error_count();
      if (pool_errors > 0) pool.TakeFirstError();
    }
    if (pool_errors > 0 && budget != nullptr) budget->MarkInternalError();
    for (const UnrestrictedDeterminacyResult& r : batch.results) {
      batch.outcome = guard::MergeOutcome(batch.outcome, r.outcome);
      if (guard::IsComplete(r.outcome)) ++batch.items_completed;
    }
    if (pool_errors > 0) {
      batch.outcome = guard::Outcome::kInternalError;
    }
    return batch;
  }

  for (std::size_t i = 0; i < items.size(); ++i) {
    if (decide_one(i)) {
      obs::ReportProgress("determinacy.batch", i + 1, total);
    }
  }
  for (const UnrestrictedDeterminacyResult& r : batch.results) {
    batch.outcome = guard::MergeOutcome(batch.outcome, r.outcome);
    if (guard::IsComplete(r.outcome)) ++batch.items_completed;
  }
  return batch;
}

}  // namespace vqdr
