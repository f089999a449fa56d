#include "chase/chain.h"

#include <memory>
#include <string>
#include <utility>

#include "base/check.h"
#include "chase/view_inverse.h"
#include "cq/fingerprint.h"
#include "cq/serialize.h"
#include "data/serialize.h"
#include "memo/snapshot.h"
#include "memo/store.h"
#include "obs/context.h"
#include "obs/explain.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace vqdr {

namespace {

/// A cached chain plus the factory state after the build, so a hit can
/// replay the exact factory advance of the original computation.
struct CachedChaseChain {
  ChaseChain chain;
  std::int64_t end_next_id = 0;
};

// Snapshot codec (DESIGN.md §14). Only kComplete chains are ever installed
// (see BuildChaseChain), so the outcome is not encoded: a decoded chain is
// complete by construction, and the four level sequences share one length.
std::string EncodeCachedChain(const CachedChaseChain& cached) {
  wire::Encoder enc;
  EncodeFrozenQuery(cached.chain.frozen_query, enc);
  enc.U64(cached.chain.d.size());
  for (std::size_t k = 0; k < cached.chain.d.size(); ++k) {
    EncodeInstance(cached.chain.d[k], enc);
    EncodeInstance(cached.chain.s[k], enc);
    EncodeInstance(cached.chain.s_prime[k], enc);
    EncodeInstance(cached.chain.d_prime[k], enc);
  }
  enc.I64(cached.end_next_id);
  return enc.Take();
}

std::shared_ptr<const CachedChaseChain> DecodeCachedChain(
    std::string_view payload) {
  wire::Decoder dec(payload);
  auto cached = std::make_shared<CachedChaseChain>();
  if (!DecodeFrozenQuery(dec, &cached->chain.frozen_query)) return nullptr;
  std::uint64_t levels = dec.U64();
  if (!dec.CheckCount(levels, 64)) return nullptr;
  for (std::uint64_t k = 0; k < levels; ++k) {
    Instance d, s, sp, dp;
    if (!DecodeInstance(dec, &d) || !DecodeInstance(dec, &s) ||
        !DecodeInstance(dec, &sp) || !DecodeInstance(dec, &dp)) {
      return nullptr;
    }
    cached->chain.d.push_back(std::move(d));
    cached->chain.s.push_back(std::move(s));
    cached->chain.s_prime.push_back(std::move(sp));
    cached->chain.d_prime.push_back(std::move(dp));
  }
  cached->end_next_id = dec.I64();
  if (!dec.ok() || !dec.AtEnd()) return nullptr;
  return cached;
}

[[maybe_unused]] const bool kChainCodecRegistered =
    memo::RegisterSnapshotType<CachedChaseChain>(
        "chase.chain.v1", EncodeCachedChain, DecodeCachedChain);

ChaseChain BuildChaseChainImpl(const ViewSet& views, const ConjunctiveQuery& q,
                               const ChaseChainOptions& options,
                               ValueFactory& factory);

// One kChaseLevel event per completed level: the four instance sizes of the
// recurrence plus how many fresh nulls the level minted from the factory.
void RecordChaseLevel(obs::ExplainLog* log, int level, const ChaseChain& chain,
                      std::int64_t fresh_nulls) {
  if (!obs::Wants(log)) return;
  obs::ExplainEvent e;
  e.kind = obs::ExplainKind::kChaseLevel;
  e.label = "chase.level";
  e.stats["level"] = level;
  e.stats["d_facts"] =
      static_cast<std::int64_t>(chain.d[level].TupleCount());
  e.stats["s_facts"] =
      static_cast<std::int64_t>(chain.s[level].TupleCount());
  e.stats["s_prime_facts"] =
      static_cast<std::int64_t>(chain.s_prime[level].TupleCount());
  e.stats["d_prime_facts"] =
      static_cast<std::int64_t>(chain.d_prime[level].TupleCount());
  e.stats["fresh_nulls"] = fresh_nulls;
  log->Append(std::move(e));
}

void RecordChaseMemoProbe(obs::ExplainLog* log, bool hit) {
  if (!obs::Wants(log)) return;
  obs::ExplainEvent e;
  e.kind = obs::ExplainKind::kMemo;
  e.label = "chase.chain";
  e.detail = hit ? "hit" : "miss";
  e.stats["hit"] = hit ? 1 : 0;
  log->Append(std::move(e));
}

}  // namespace

ChaseChain BuildChaseChain(const ViewSet& views, const ConjunctiveQuery& q,
                           int levels, ValueFactory& factory) {
  ChaseChainOptions options;
  options.levels = levels;
  return BuildChaseChain(views, q, options, factory);
}

ChaseChain BuildChaseChain(const ViewSet& views, const ConjunctiveQuery& q,
                           const ChaseChainOptions& options,
                           ValueFactory& factory) {
  obs::OpScope op(obs::OpKind::kChase, "chase.chain", options.budget);
  if (memo::ResolveUse(options.memo)) {
    VQDR_TRACE_SPAN("memo.chase.chain");
    // Exact key: the chain's instances carry concrete value ids, so the
    // whole input state — including where the factory will mint from — must
    // match for a cached chain to be byte-identical.
    std::string key = "chase.chain|" + views.ToString() + "|" +
                      ExactCqKey(q) + "|L" +
                      std::to_string(options.levels) + "|F" +
                      std::to_string(factory.next_id());
    memo::Store& store = memo::ResolveStore(options.memo);
    if (auto hit = store.Get<CachedChaseChain>(key)) {
      RecordChaseMemoProbe(options.explain, /*hit=*/true);
      factory.NoteUsed(Value(hit->end_next_id - 1));
      return hit->chain;
    }
    RecordChaseMemoProbe(options.explain, /*hit=*/false);
    ChaseChain chain = BuildChaseChainImpl(views, q, options, factory);
    // Never cache partial results: a truncated or errored chain reflects the
    // budget/fault environment of this one call, not the inputs.
    if (guard::IsComplete(chain.outcome)) {
      store.Put(key, CachedChaseChain{chain, factory.next_id()});
    }
    return chain;
  }
  return BuildChaseChainImpl(views, q, options, factory);
}

namespace {

ChaseChain BuildChaseChainImpl(const ViewSet& views, const ConjunctiveQuery& q,
                               const ChaseChainOptions& options,
                               ValueFactory& factory) {
  const int levels = options.levels;
  guard::Budget* budget = options.budget;
  VQDR_COUNTER_INC("chase.chain.builds");
  VQDR_TRACE_SPAN("chase.chain", levels);
  VQDR_CHECK(views.AllPureCq()) << "chase chain requires pure CQ views";
  VQDR_CHECK(q.IsPureCq()) << "chase chain requires a pure CQ query";
  VQDR_CHECK_GE(levels, 0);

  // Freeze only notes q's own constants; constants appearing solely in a
  // view definition would otherwise be reachable by the frozen values of
  // [Q] and alias a chase null to a dom constant at level 0 (ViewInverse
  // guards its own minting the same way for deeper levels).
  for (const View& v : views.views()) {
    for (Value c : v.query.AsCq().Constants()) factory.NoteUsed(c);
  }

  ChaseChain chain;
  std::int64_t ids_before_level = factory.next_id();
  chain.frozen_query = Freeze(q, factory);

  // Level 0.
  Schema chase_schema = ChaseSchema(views, chain.frozen_query.instance.schema());
  Instance d0(chase_schema);
  for (const RelationDecl& decl : chain.frozen_query.instance.schema().decls()) {
    d0.Set(decl.name, chain.frozen_query.instance.Get(decl.name));
  }
  try {
    chain.d.push_back(d0);
    chain.s.push_back(views.Apply(d0));
    chain.s_prime.push_back(Instance(views.OutputSchema()));  // S'_0 = ∅
    Instance empty(chase_schema);
    Instance dp0 = ViewInverse(views, empty, chain.s[0], factory, budget);
    if (budget != nullptr && budget->Stopped()) {
      // Level 0 could not be completed: drop everything so the invariant
      // "every level present is exact" holds vacuously.
      chain.d.clear();
      chain.s.clear();
      chain.s_prime.clear();
      chain.outcome = budget->stop_reason();
      return chain;
    }
    chain.d_prime.push_back(std::move(dp0));
    RecordChaseLevel(options.explain, 0, chain,
                     factory.next_id() - ids_before_level);
  } catch (...) {
    if (budget != nullptr) budget->MarkInternalError();
    chain.d.clear();
    chain.s.clear();
    chain.s_prime.clear();
    chain.outcome = guard::Outcome::kInternalError;
    return chain;
  }

  for (int k = 0; k < levels; ++k) {
    if (budget != nullptr && !budget->AllowsChaseLevel(k + 1)) {
      chain.outcome = guard::Outcome::kStepBudgetExhausted;
      break;
    }
    VQDR_COUNTER_INC("chase.chain.levels");
    VQDR_TRACE_SPAN("chase.level", k + 1);
    // Build the whole level into locals and append only when the budget
    // survived it — a tripped budget leaves a partial inverse, which must
    // never become a chain level.
    ids_before_level = factory.next_id();
    try {
      // S'_{k+1} = V(D'_k)
      Instance sp = views.Apply(chain.d_prime[k]);
      // D_{k+1} = V_{D_k}^{-1}(S'_{k+1})
      Instance d = ViewInverse(views, chain.d[k], sp, factory, budget);
      // S_{k+1} = V(D_{k+1})
      Instance s = views.Apply(d);
      // D'_{k+1} = V_{D'_k}^{-1}(S_{k+1})
      Instance dp = ViewInverse(views, chain.d_prime[k], s, factory, budget);
      if (budget != nullptr && budget->Stopped()) {
        chain.outcome = budget->stop_reason();
        break;
      }
      chain.s_prime.push_back(std::move(sp));
      chain.d.push_back(std::move(d));
      chain.s.push_back(std::move(s));
      chain.d_prime.push_back(std::move(dp));
      RecordChaseLevel(options.explain, k + 1, chain,
                       factory.next_id() - ids_before_level);
    } catch (...) {
      if (budget != nullptr) budget->MarkInternalError();
      chain.outcome = guard::Outcome::kInternalError;
      break;
    }
    VQDR_HISTOGRAM_RECORD("chase.chain.level_size",
                          chain.d[k + 1].TupleCount());
    // Chain levels grow doubly fast; beat the op once per level so a deep
    // ungoverned build stays visibly alive to the stall watchdog.
    obs::OpHeartbeat();
  }
  return chain;
}

}  // namespace

}  // namespace vqdr
