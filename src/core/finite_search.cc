#include "core/finite_search.h"

#include <map>
#include <string>
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

// Budget-checkpoint cadence inside parallel workers: tight enough that
// deadlines and cancellation land promptly even when the per-instance work
// is expensive.
constexpr std::uint64_t kGovernStride = 128;

// Charges `n` examined instances to a parallel search's budget; false once
// the budget has stopped. A governed search beats its op through the
// budget checkpoint; an ungoverned one beats here, so the stall watchdog
// sees both.
bool ChargeInstances(guard::Budget* budget, std::uint64_t n) {
  if (budget == nullptr) obs::OpHeartbeat(n);
  return guard::IsComplete(guard::Check(budget, n));
}

std::vector<Value> UniverseFor(const EnumerationOptions& options) {
  std::vector<Value> universe;
  for (int v = 1; v <= options.domain_size; ++v) universe.push_back(Value(v));
  return universe;
}

DeterminacySearchResult SearchDeterminacyCounterexampleSerial(
    const ViewSet& views, const Query& q, const Schema& base,
    const EnumerationOptions& options) {
  DeterminacySearchResult result;

  obs::CounterSite instances = obs::GetCounterSite("search.instances");

  // The examined tally is a local count of body invocations (mirrored into
  // the shared obs counter): a local count, unlike a counter *delta*, stays
  // exact when other threads run searches concurrently.
  std::uint64_t examined = 0;

  // First instance and query answer seen per view-image key.
  struct GroupInfo {
    Instance first{Schema{}};
    Relation answer{0};
  };
  std::map<std::string, GroupInfo> groups;

  EnumerationOutcome outcome;
  try {
    outcome = ForEachInstance(base, options, [&](const Instance& d) {
      instances.Increment();
      ++examined;
      // ForEachInstance checkpoints a governed sweep (which beats the op)
      // before every instance; an ungoverned sweep beats here.
      if (options.budget == nullptr) obs::OpHeartbeat();
      VQDR_FAULT_ALLOC("search.instances");
      Instance image = views.Apply(d);
      std::string key = image.ToKey();
      Relation answer = q.Eval(d);
      auto it = groups.find(key);
      if (it == groups.end()) {
        VQDR_COUNTER_INC("search.groups");
        groups.emplace(key, GroupInfo{d, answer});
        return true;
      }
      if (it->second.answer != answer) {
        VQDR_COUNTER_INC("search.counterexamples");
        result.verdict = SearchVerdict::kCounterexampleFound;
        result.counterexample =
            DeterminacyCounterexample{it->second.first, d};
        return false;
      }
      return true;
    });
  } catch (...) {
    // Allocation failure (real or injected) mid-sweep: report the honest
    // prefix instead of propagating. The throwing instance did not finish,
    // so it is not part of the examined prefix.
    if (options.budget != nullptr) options.budget->MarkInternalError();
    result.verdict = SearchVerdict::kBudgetExhausted;
    result.outcome = guard::Outcome::kInternalError;
    result.instances_examined = examined > 0 ? examined - 1 : 0;
    return result;
  }
  result.instances_examined = examined;
  if (result.verdict != SearchVerdict::kCounterexampleFound &&
      !outcome.complete) {
    result.verdict = SearchVerdict::kBudgetExhausted;
    result.outcome = outcome.outcome;
  }
  return result;
}

// Per-chunk grouping record: enough to reconstruct, at merge time, the first
// conflict the serial sweep would have reported. For each view-image key a
// chunk remembers its locally-first instance (with its answer) and the first
// local instance whose answer differs from that local first. Given the key's
// *global* first answer A from earlier chunks, the chunk's earliest conflict
// against A is either its local first (when its answer != A) or its recorded
// differing instance (when the local first agrees with A) — no other local
// instance can conflict earlier.
struct GroupRecord {
  std::uint64_t first_index = 0;
  Instance first{Schema{}};
  Relation first_answer{0};
  bool has_diff = false;
  std::uint64_t diff_index = 0;
  Instance diff{Schema{}};
};

struct SearchChunk {
  bool processed = false;
  std::uint64_t examined = 0;
  std::map<std::string, GroupRecord> groups;
};

DeterminacySearchResult SearchDeterminacyCounterexampleParallel(
    const ViewSet& views, const Query& q, const InstanceSpace& space,
    const EnumerationOptions& options, int threads) {
  VQDR_TRACE_SPAN("search.determinacy.par");

  const bool truncated = space.total() > options.max_instances;
  const std::uint64_t n = truncated ? options.max_instances : space.total();
  par::ShardPlan plan = par::PlanShards(n, threads);

  std::vector<SearchChunk> chunks(plan.num_chunks);
  par::FirstHit hint;
  guard::Budget* budget = options.budget;
  obs::CounterSite instances = obs::GetCounterSite("search.instances");

  std::uint64_t pool_errors = 0;
  {
    par::ThreadPool pool(threads);
    par::ParallelForChunks(pool, plan.num_chunks, [&](std::uint64_t c) {
      if (!guard::IsComplete(guard::StopReason(budget))) return;
      const std::uint64_t begin = plan.Begin(c);
      // A conflict strictly before this chunk already beats anything the
      // chunk could contribute (lowest index wins) — skip it.
      if (hint.best() < begin) return;
      SearchChunk& chunk = chunks[c];
      std::uint64_t since_report = 0;
      bool completed = true;
      space.ForRange(
          begin, plan.End(c), [&](std::uint64_t idx, const Instance& d) {
            VQDR_FAULT_ALLOC("search.instances");
            ++chunk.examined;
            Instance image = views.Apply(d);
            std::string key = image.ToKey();
            Relation answer = q.Eval(d);
            auto it = chunk.groups.find(key);
            if (it == chunk.groups.end()) {
              VQDR_COUNTER_INC("search.groups");
              chunk.groups.emplace(
                  std::move(key),
                  GroupRecord{idx, d, std::move(answer), false, 0,
                              Instance{Schema{}}});
            } else if (!it->second.has_diff &&
                       answer != it->second.first_answer) {
              it->second.has_diff = true;
              it->second.diff_index = idx;
              it->second.diff = d;
              hint.TryImprove(idx);
            }
            if (++since_report >= kGovernStride) {
              if (!ChargeInstances(budget, since_report)) {
                completed = false;
                return false;
              }
              since_report = 0;
              if (hint.best() < begin) {
                // Pruned mid-flight: treat like a skipped chunk.
                completed = false;
                return false;
              }
            }
            return true;
          });
      ChargeInstances(budget, since_report);
      instances.Add(chunk.examined);
      chunk.processed = completed;
    });
    // A task that threw (injected allocation failure, say) left its chunk
    // unprocessed; the pool captured the exception and kept draining.
    pool_errors = pool.error_count();
    if (pool_errors > 0) pool.TakeFirstError();
  }
  if (pool_errors > 0 && budget != nullptr) budget->MarkInternalError();

  // Deterministic merge, in chunk order. The merge stops at the first
  // unprocessed chunk: chunks are only skipped when a conflict strictly
  // before them exists, so the winning (lowest-index) conflict always lies
  // within the contiguous processed prefix.
  struct GlobalEntry {
    const Instance* first;
    const Relation* answer;
  };
  std::map<std::string, GlobalEntry> global;
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
  bool prefix_complete = true;
  for (std::uint64_t c = 0; c < plan.num_chunks; ++c) {
    if (!chunks[c].processed) {
      prefix_complete = false;
      break;
    }
    prefix += plan.Size(c);
    for (auto& [key, rec] : chunks[c].groups) {
      auto git = global.find(key);
      if (git == global.end()) {
        if (rec.has_diff) candidate(rec.diff_index, &rec.first, &rec.diff);
        global.emplace(key, GlobalEntry{&rec.first, &rec.first_answer});
      } else if (*git->second.answer != rec.first_answer) {
        candidate(rec.first_index, git->second.first, &rec.first);
      } else if (rec.has_diff) {
        candidate(rec.diff_index, git->second.first, &rec.diff);
      }
    }
  }

  const guard::Outcome stop = guard::StopReason(budget);
  DeterminacySearchResult result;
  if (best_index != par::FirstHit::kNone) {
    VQDR_COUNTER_INC("search.counterexamples");
    result.verdict = SearchVerdict::kCounterexampleFound;
    result.counterexample = DeterminacyCounterexample{*best_d1, *best_d2};
    // The serial sweep stops on the conflicting instance: index + 1 bodies.
    result.instances_examined = best_index + 1;
  } else if (!prefix_complete || truncated || !guard::IsComplete(stop) ||
             pool_errors > 0) {
    result.verdict = SearchVerdict::kBudgetExhausted;
    result.instances_examined = prefix;
    result.outcome =
        pool_errors > 0 ? guard::Outcome::kInternalError : stop;
    if (guard::IsComplete(result.outcome)) {
      // Space truncation without a budget trip: same class of stop as a
      // step budget.
      result.outcome = guard::Outcome::kStepBudgetExhausted;
    }
  } else {
    result.verdict = SearchVerdict::kNoneWithinBound;
    result.instances_examined = n;
  }
  return result;
}

MonotonicitySearchResult SearchMonotonicityViolationSerial(
    const ViewSet& views, const Query& q, const Schema& base,
    const EnumerationOptions& options) {
  MonotonicitySearchResult result;

  obs::CounterSite instances = obs::GetCounterSite("search.mono.instances");
  std::uint64_t examined = 0;

  struct Entry {
    Instance d{Schema{}};
    Instance image{Schema{}};
    Relation answer{0};
  };
  std::vector<Entry> entries;

  EnumerationOutcome outcome;
  try {
    outcome = ForEachInstance(base, options, [&](const Instance& d) {
      instances.Increment();
      ++examined;
      if (options.budget == nullptr) obs::OpHeartbeat();
      VQDR_FAULT_ALLOC("search.instances");
      entries.push_back(Entry{d, views.Apply(d), q.Eval(d)});
      return true;
    });
  } catch (...) {
    if (options.budget != nullptr) options.budget->MarkInternalError();
    result.verdict = SearchVerdict::kBudgetExhausted;
    result.outcome = guard::Outcome::kInternalError;
    result.instances_examined = examined > 0 ? examined - 1 : 0;
    return result;
  }
  result.instances_examined = examined;

  obs::CounterSite pairs = obs::GetCounterSite("search.mono.pairs");
  for (const Entry& a : entries) {
    // One budget step per row: a row is O(entries) subset tests, so the
    // quadratic phase stays governable without per-pair overhead.
    guard::Outcome check = guard::Check(options.budget);
    if (!guard::IsComplete(check)) {
      result.verdict = SearchVerdict::kBudgetExhausted;
      result.outcome = check;
      return result;
    }
    // Tally the row locally and flush once: a row is O(entries) qualifying
    // pairs, and per-pair counter traffic (global + per-op mirror) is
    // measurable on the hot path.
    std::uint64_t row_pairs = 0;
    for (const Entry& b : entries) {
      if (&a == &b) continue;
      if (!a.image.IsSubInstanceOf(b.image)) continue;
      ++row_pairs;
      if (!a.answer.IsSubsetOf(b.answer)) {
        pairs.Add(row_pairs);
        VQDR_COUNTER_INC("search.mono.violations");
        result.verdict = SearchVerdict::kCounterexampleFound;
        result.violation =
            MonotonicityViolation{a.d, b.d, a.image, b.image};
        return result;
      }
    }
    if (row_pairs != 0) pairs.Add(row_pairs);
  }
  if (!outcome.complete) {
    result.verdict = SearchVerdict::kBudgetExhausted;
    result.outcome = outcome.outcome;
  }
  return result;
}

MonotonicitySearchResult SearchMonotonicityViolationParallel(
    const ViewSet& views, const Query& q, const InstanceSpace& space,
    const EnumerationOptions& options, int threads) {
  VQDR_TRACE_SPAN("search.monotonicity.par");

  const bool truncated = space.total() > options.max_instances;
  const std::uint64_t n = truncated ? options.max_instances : space.total();

  struct Entry {
    Instance d{Schema{}};
    Instance image{Schema{}};
    Relation answer{0};
  };

  par::ThreadPool pool(threads);

  // Phase 1: evaluate (view image, answer) for every instance in the
  // prefix, sharded; entries are concatenated in chunk order afterwards, so
  // the merged vector is exactly the serial enumeration order.
  par::ShardPlan plan = par::PlanShards(n, threads);
  struct EntryChunk {
    bool processed = false;
    std::uint64_t examined = 0;
    std::vector<Entry> entries;
  };
  std::vector<EntryChunk> entry_chunks(plan.num_chunks);
  guard::Budget* budget = options.budget;
  obs::CounterSite instances = obs::GetCounterSite("search.mono.instances");

  par::ParallelForChunks(pool, plan.num_chunks, [&](std::uint64_t c) {
    if (!guard::IsComplete(guard::StopReason(budget))) return;
    EntryChunk& chunk = entry_chunks[c];
    chunk.entries.reserve(plan.Size(c));
    std::uint64_t since_report = 0;
    bool completed = true;
    space.ForRange(plan.Begin(c), plan.End(c),
                   [&](std::uint64_t, const Instance& d) {
                     VQDR_FAULT_ALLOC("search.instances");
                     ++chunk.examined;
                     chunk.entries.push_back(
                         Entry{d, views.Apply(d), q.Eval(d)});
                     if (++since_report >= kGovernStride) {
                       if (!ChargeInstances(budget, since_report)) {
                         completed = false;
                         return false;
                       }
                       since_report = 0;
                     }
                     return true;
                   });
    ChargeInstances(budget, since_report);
    instances.Add(chunk.examined);
    chunk.processed = completed;
  });
  std::uint64_t pool_errors = pool.error_count();
  if (pool_errors > 0) {
    pool.TakeFirstError();
    if (budget != nullptr) budget->MarkInternalError();
  }

  std::vector<Entry> entries;
  entries.reserve(n);
  bool enumeration_complete = true;
  for (EntryChunk& chunk : entry_chunks) {
    if (!chunk.processed) {
      enumeration_complete = false;
      break;
    }
    for (Entry& e : chunk.entries) entries.push_back(std::move(e));
  }

  MonotonicitySearchResult result;
  result.instances_examined = entries.size();

  // Phase 2: the quadratic pair scan, sharded by row. Each row chunk
  // reports its lexicographically-first violating (a, b); the merge takes
  // the overall lexicographic minimum, reproducing the serial row-major
  // first hit. A published row hint prunes row chunks that start beyond it.
  const std::uint64_t rows = entries.size();
  par::ShardPlan row_plan = par::PlanShards(rows, threads, 1, 4096);
  struct RowHit {
    bool processed = false;
    bool found = false;
    std::uint64_t a = 0;
    std::uint64_t b = 0;
  };
  std::vector<RowHit> row_hits(row_plan.num_chunks);
  par::FirstHit row_hint;
  obs::CounterSite pairs = obs::GetCounterSite("search.mono.pairs");

  par::ParallelForChunks(pool, row_plan.num_chunks, [&](std::uint64_t c) {
    const std::uint64_t row_begin = row_plan.Begin(c);
    if (row_hint.best() < row_begin) return;
    RowHit& hit = row_hits[c];
    std::uint64_t local_pairs = 0;
    bool completed = true;
    for (std::uint64_t a = row_begin; a < row_plan.End(c) && !hit.found;
         ++a) {
      // One budget step per row, matching the serial scan's granularity.
      if (!guard::IsComplete(guard::Check(budget))) {
        completed = false;
        break;
      }
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
    }
    pairs.Add(local_pairs);
    hit.processed = completed;
  });
  std::uint64_t scan_errors = pool.error_count();
  if (scan_errors > 0) {
    pool.TakeFirstError();
    pool_errors += scan_errors;
    if (budget != nullptr) budget->MarkInternalError();
  }

  bool found = false;
  std::uint64_t best_a = 0;
  std::uint64_t best_b = 0;
  for (const RowHit& hit : row_hits) {
    if (!hit.processed) break;  // skipped: every candidate there is later
    if (hit.found &&
        (!found || hit.a < best_a || (hit.a == best_a && hit.b < best_b))) {
      found = true;
      best_a = hit.a;
      best_b = hit.b;
    }
  }

  bool row_scan_complete = true;
  for (const RowHit& hit : row_hits) {
    if (!hit.processed) {
      row_scan_complete = false;
      break;
    }
  }

  if (found) {
    VQDR_COUNTER_INC("search.mono.violations");
    result.verdict = SearchVerdict::kCounterexampleFound;
    result.violation = MonotonicityViolation{
        entries[best_a].d, entries[best_b].d, entries[best_a].image,
        entries[best_b].image};
    return result;
  }
  const guard::Outcome stop = guard::StopReason(budget);
  if (!enumeration_complete || !row_scan_complete || truncated ||
      !guard::IsComplete(stop) || pool_errors > 0) {
    result.verdict = SearchVerdict::kBudgetExhausted;
    result.outcome =
        pool_errors > 0 ? guard::Outcome::kInternalError : stop;
    if (guard::IsComplete(result.outcome)) {
      result.outcome = guard::Outcome::kStepBudgetExhausted;
    }
  }
  return result;
}

// Provenance for a finished bounded search: the refuting pair itself on a
// hit (both instances, replayable), a kNote stating what the silence means
// otherwise. Recorded in the top-level wrappers so serial and parallel
// sweeps produce identical logs.
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
  DeterminacySearchResult result;
  bool computed = false;
  if (threads > 1) {
    InstanceSpace space(base, UniverseFor(options));
    if (space.indexable()) {
      result = SearchDeterminacyCounterexampleParallel(views, q, space,
                                                       options, threads);
      computed = true;
    }
    // Not indexable: the serial sweep's incremental bail-out semantics are
    // the only option.
  }
  if (!computed) {
    result = SearchDeterminacyCounterexampleSerial(views, q, base, options);
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
  MonotonicitySearchResult result;
  bool computed = false;
  if (threads > 1) {
    InstanceSpace space(base, UniverseFor(options));
    if (space.indexable()) {
      result = SearchMonotonicityViolationParallel(views, q, space, options,
                                                   threads);
      computed = true;
    }
  }
  if (!computed) {
    result = SearchMonotonicityViolationSerial(views, q, base, options);
  }
  RecordSearchOutcome(options.explain, "search.monotonicity", result.verdict,
                      result.instances_examined,
                      result.violation ? &result.violation->d1 : nullptr,
                      result.violation ? &result.violation->d2 : nullptr);
  return result;
}

}  // namespace vqdr
