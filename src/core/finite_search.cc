#include "core/finite_search.h"

#include <algorithm>
#include <iterator>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "cq/explain_bridge.h"
#include "guard/fault.h"
#include "obs/context.h"
#include "obs/explain.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "par/pool.h"
#include "par/shard.h"

namespace vqdr {

namespace {

std::vector<Value> UniverseFor(const EnumerationOptions& options) {
  std::vector<Value> universe;
  for (int v = 1; v <= options.domain_size; ++v) universe.push_back(Value(v));
  return universe;
}

// The checkpoint before each instance (and each monotonicity row); false
// once the budget has stopped. A governed sweep beats its op through the
// budget checkpoint; an ungoverned one beats here, so the stall watchdog
// sees both.
bool Checkpoint(guard::Budget* budget) {
  if (budget == nullptr) {
    obs::OpHeartbeat();
    return true;
  }
  return guard::IsComplete(budget->Checkpoint());
}

// The chunking of a sweep over [0, n): one chunk at threads = 1, so the
// calling thread stops exactly where a serial walk would; ~8 per thread
// otherwise.
par::ShardPlan PlanSweep(std::uint64_t n, int threads,
                         std::uint64_t min_chunk) {
  return threads == 1 ? par::PlanShards(n, 1, /*min_chunk=*/n)
                      : par::PlanShards(n, threads, min_chunk);
}

// Per-chunk grouping record: enough to reconstruct, at merge time, the first
// conflict of the whole sweep. For each view-image key a chunk remembers its
// locally-first instance (with its answer) and the first local instance
// whose answer differs from that local first. Given the key's *global* first
// answer A from earlier chunks, the chunk's earliest conflict against A is
// either its local first (when its answer != A) or its recorded differing
// instance (when the local first agrees with A) — no other local instance
// can conflict earlier.
struct GroupRecord {
  std::uint64_t first_index = 0;
  Instance first{Schema{}};
  Relation first_answer{0};
  bool has_diff = false;
  std::uint64_t diff_index = 0;
  Instance diff{Schema{}};
};

struct SearchChunk {
  // Instances finished, from the chunk's first index on; fewer than the
  // chunk's size when it stopped short.
  std::uint64_t examined = 0;
  std::map<std::string, GroupRecord> groups;
};

// Provenance for a finished bounded search: the refuting pair itself on a
// hit (both instances, replayable), a kNote stating what the silence means
// otherwise. Recorded from the merged result, so every thread count
// produces the same log.
void RecordSearchOutcome(obs::ExplainLog* log, const char* label,
                         SearchVerdict verdict,
                         std::uint64_t instances_examined, const Instance* d1,
                         const Instance* d2) {
  if (!obs::Wants(log)) return;
  obs::ExplainEvent e;
  e.label = label;
  e.stats["instances_examined"] =
      static_cast<std::int64_t>(instances_examined);
  switch (verdict) {
    case SearchVerdict::kCounterexampleFound:
      e.kind = obs::ExplainKind::kCounterexample;
      e.detail = "refuting pair found: equal view images, different answers";
      e.instance = ToExplainFacts(*d1);
      e.instance2 = ToExplainFacts(*d2);
      break;
    case SearchVerdict::kNoneWithinBound:
      e.kind = obs::ExplainKind::kNote;
      e.detail = "no counterexample within bound (silence, not proof)";
      break;
    case SearchVerdict::kBudgetExhausted:
      e.kind = obs::ExplainKind::kNote;
      e.detail = "search stopped before covering the space";
      break;
  }
  log->Append(std::move(e));
}

}  // namespace

DeterminacySearchResult SearchDeterminacyCounterexample(
    const ViewSet& views, const Query& q, const Schema& base,
    const EnumerationOptions& options) {
  obs::OpScope op(obs::OpKind::kSearch, "search.determinacy", options.budget);
  VQDR_TRACE_SPAN("search.determinacy");
  const int threads = par::ResolveThreads(options.threads);
  InstanceSpace space(base, UniverseFor(options));
  // A refused space has no instances and reports like a truncated one.
  const bool truncated =
      !space.indexable() || space.total() > options.max_instances;
  const std::uint64_t n = std::min(space.total(), options.max_instances);
  const par::ShardPlan plan = PlanSweep(n, threads, 16);

  std::vector<SearchChunk> chunks(plan.num_chunks);
  par::FirstHit hint;
  guard::Budget* budget = options.budget;

  // A chunk stops short at its first internal conflict (every later
  // candidate, in it or in a later chunk, has a larger index), once a
  // conflict before it is known, on a budget stop, or on a throw.
  const std::uint64_t errors =
      par::ParallelForChunks(threads, plan.num_chunks, [&](std::uint64_t c) {
        SearchChunk& chunk = chunks[c];
        const std::uint64_t begin = plan.Begin(c);
        space.ForRange(
            begin, plan.End(c), [&](std::uint64_t idx, const Instance& d) {
              if (hint.best() < begin || !Checkpoint(budget)) return false;
              VQDR_FAULT_ALLOC("search.instances");
              Instance image = views.Apply(d);
              std::string key = image.ToKey();
              Relation answer = q.Eval(d);
              bool conflict = false;
              auto it = chunk.groups.find(key);
              if (it == chunk.groups.end()) {
                VQDR_COUNTER_INC("search.groups");
                chunk.groups.emplace(
                    std::move(key),
                    GroupRecord{idx, d, std::move(answer), false, 0,
                                Instance{Schema{}}});
              } else if (answer != it->second.first_answer) {
                it->second.diff_index = idx;
                it->second.diff = d;
                it->second.has_diff = true;
                hint.TryImprove(idx);
                conflict = true;
              }
              ++chunk.examined;
              return !conflict;
            });
      });
  if (errors > 0 && budget != nullptr) budget->MarkInternalError();

  // Deterministic merge, in chunk order, over the contiguous prefix of
  // finished instances: it stops after the first chunk that stopped short,
  // which contributes what it finished. A chunk is only pruned when a
  // conflict before it exists, so the lowest-index conflict, if the space
  // holds one, lies in the merged prefix unless the budget stopped or a
  // chunk threw first. `global` maps each key to its globally first record.
  std::map<std::string_view, const GroupRecord*> global;
  std::uint64_t best_index = par::FirstHit::kNone;
  const Instance* best_d1 = nullptr;
  const Instance* best_d2 = nullptr;
  auto candidate = [&](std::uint64_t index, const Instance* d1,
                       const Instance* d2) {
    if (index < best_index) {
      best_index = index;
      best_d1 = d1;
      best_d2 = d2;
    }
  };
  std::uint64_t prefix = 0;
  for (std::uint64_t c = 0; c < plan.num_chunks; ++c) {
    const SearchChunk& chunk = chunks[c];
    prefix += chunk.examined;
    for (const auto& [key, rec] : chunk.groups) {
      auto [git, inserted] = global.try_emplace(key, &rec);
      const GroupRecord& global_first = *git->second;
      if (!inserted && global_first.first_answer != rec.first_answer) {
        candidate(rec.first_index, &global_first.first, &rec.first);
      } else if (rec.has_diff) {
        candidate(rec.diff_index, &global_first.first, &rec.diff);
      }
    }
    if (chunk.examined < plan.Size(c)) break;
  }
  // The tally sums the work actually done, past the merged prefix too.
  std::uint64_t worked = 0;
  for (const SearchChunk& chunk : chunks) worked += chunk.examined;
  obs::GetCounterSite("search.instances").Add(worked);

  DeterminacySearchResult result;
  result.instances_examined = prefix;
  if (best_index != par::FirstHit::kNone) {
    VQDR_COUNTER_INC("search.counterexamples");
    result.verdict = SearchVerdict::kCounterexampleFound;
    result.counterexample = DeterminacyCounterexample{*best_d1, *best_d2};
    // A serial walk stops on the conflicting instance: index + 1 of them.
    result.instances_examined = best_index + 1;
  } else if (prefix < n || truncated) {
    result.verdict = SearchVerdict::kBudgetExhausted;
    // A covered but truncated sweep stopped at max_instances, the same
    // class of stop as a step budget.
    result.outcome = prefix == n  ? guard::Outcome::kStepBudgetExhausted
                     : errors > 0 ? guard::Outcome::kInternalError
                                  : guard::StopReason(budget);
  }
  RecordSearchOutcome(
      options.explain, "search.determinacy", result.verdict,
      result.instances_examined,
      result.counterexample ? &result.counterexample->d1 : nullptr,
      result.counterexample ? &result.counterexample->d2 : nullptr);
  return result;
}

MonotonicitySearchResult SearchMonotonicityViolation(
    const ViewSet& views, const Query& q, const Schema& base,
    const EnumerationOptions& options) {
  obs::OpScope op(obs::OpKind::kMonotonicity, "search.monotonicity",
                  options.budget);
  VQDR_TRACE_SPAN("search.monotonicity");
  const int threads = par::ResolveThreads(options.threads);
  InstanceSpace space(base, UniverseFor(options));
  const bool truncated =
      !space.indexable() || space.total() > options.max_instances;
  const std::uint64_t n = std::min(space.total(), options.max_instances);
  guard::Budget* budget = options.budget;

  struct Entry {
    Instance d{Schema{}};
    Instance image{Schema{}};
    Relation answer{0};
  };

  // Phase 1: (view image, answer) for every instance of the prefix, per
  // chunk; a chunk stops short on a budget stop or a throw.
  const par::ShardPlan plan = PlanSweep(n, threads, 16);
  std::vector<std::vector<Entry>> entry_chunks(plan.num_chunks);
  const std::uint64_t errors =
      par::ParallelForChunks(threads, plan.num_chunks, [&](std::uint64_t c) {
        std::vector<Entry>& out = entry_chunks[c];
        space.ForRange(plan.Begin(c), plan.End(c),
                       [&](std::uint64_t, const Instance& d) {
                         if (!Checkpoint(budget)) return false;
                         VQDR_FAULT_ALLOC("search.instances");
                         out.push_back(Entry{d, views.Apply(d), q.Eval(d)});
                         return true;
                       });
      });

  // Concatenated in chunk order up to the first chunk that stopped short,
  // which contributes what it finished: exactly the enumeration-order
  // prefix.
  std::vector<Entry> entries;
  std::uint64_t worked = 0;
  bool prefix_open = true;
  for (std::uint64_t c = 0; c < plan.num_chunks; ++c) {
    std::vector<Entry>& chunk = entry_chunks[c];
    worked += chunk.size();
    if (!prefix_open) continue;
    prefix_open = chunk.size() == plan.Size(c);
    entries.insert(entries.end(), std::make_move_iterator(chunk.begin()),
                   std::make_move_iterator(chunk.end()));
  }
  obs::GetCounterSite("search.mono.instances").Add(worked);

  MonotonicitySearchResult result;
  result.instances_examined = entries.size();
  if (errors > 0) {
    if (budget != nullptr) budget->MarkInternalError();
    result.verdict = SearchVerdict::kBudgetExhausted;
    result.outcome = guard::Outcome::kInternalError;
    RecordSearchOutcome(options.explain, "search.monotonicity",
                        result.verdict, result.instances_examined, nullptr,
                        nullptr);
    return result;
  }

  // Phase 2: the quadratic pair scan by row chunks, one budget step per row
  // (a row is O(entries) subset tests). Each chunk stops at its first
  // violating (a, b), row-major; a published row hint prunes rows past it.
  const std::uint64_t rows = entries.size();
  const par::ShardPlan row_plan = PlanSweep(rows, threads, 1);
  struct RowHit {
    std::uint64_t rows_done = 0;
    bool found = false;
    std::uint64_t a = 0;
    std::uint64_t b = 0;
  };
  std::vector<RowHit> row_hits(row_plan.num_chunks);
  par::FirstHit row_hint;
  obs::CounterSite pairs = obs::GetCounterSite("search.mono.pairs");
  const std::uint64_t scan_errors = par::ParallelForChunks(
      threads, row_plan.num_chunks, [&](std::uint64_t c) {
        RowHit& hit = row_hits[c];
        const std::uint64_t row_begin = row_plan.Begin(c);
        // Tally locally and flush once: per-pair counter traffic (global +
        // per-op mirror) is measurable on the hot path.
        std::uint64_t local_pairs = 0;
        for (std::uint64_t a = row_begin; a < row_plan.End(c) && !hit.found;
             ++a) {
          if (row_hint.best() < row_begin || !Checkpoint(budget)) break;
          for (std::uint64_t b = 0; b < rows; ++b) {
            if (a == b) continue;
            if (!entries[a].image.IsSubInstanceOf(entries[b].image)) continue;
            ++local_pairs;
            if (!entries[a].answer.IsSubsetOf(entries[b].answer)) {
              hit.found = true;
              hit.a = a;
              hit.b = b;
              row_hint.TryImprove(a);
              break;
            }
          }
          if (!hit.found) ++hit.rows_done;
        }
        pairs.Add(local_pairs);
      });
  if (scan_errors > 0 && budget != nullptr) budget->MarkInternalError();

  // The first hit in chunk order over the contiguous scanned prefix is the
  // row-major first violation.
  bool covered = rows == n;
  for (std::uint64_t c = 0; c < row_plan.num_chunks; ++c) {
    const RowHit& hit = row_hits[c];
    if (hit.found) {
      VQDR_COUNTER_INC("search.mono.violations");
      result.verdict = SearchVerdict::kCounterexampleFound;
      result.violation = MonotonicityViolation{
          entries[hit.a].d, entries[hit.b].d, entries[hit.a].image,
          entries[hit.b].image};
      break;
    }
    if (hit.rows_done < row_plan.Size(c)) {
      covered = false;
      break;
    }
  }
  if (!result.violation && (!covered || truncated)) {
    result.verdict = SearchVerdict::kBudgetExhausted;
    // A covered but truncated scan stopped at max_instances, the same class
    // of stop as a step budget.
    result.outcome = covered           ? guard::Outcome::kStepBudgetExhausted
                     : scan_errors > 0 ? guard::Outcome::kInternalError
                                       : guard::StopReason(budget);
  }
  RecordSearchOutcome(options.explain, "search.monotonicity", result.verdict,
                      result.instances_examined,
                      result.violation ? &result.violation->d1 : nullptr,
                      result.violation ? &result.violation->d2 : nullptr);
  return result;
}

}  // namespace vqdr
