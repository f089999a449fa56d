#ifndef VQDR_MEMO_CACHE_THROUGH_H_
#define VQDR_MEMO_CACHE_THROUGH_H_

#include <memory>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>

#include "memo/memo.h"
#include "memo/store.h"
#include "obs/explain.h"
#include "obs/trace.h"

namespace vqdr::memo {

/// The memo policy of every cached engine call (DESIGN.md §9), in one place.
///
/// With the process switch off, returns compute() and does nothing else: no
/// key is built and nothing allocates. With it on:
///  - opens the site's `span` (nullptr = none) around the cached call;
///  - builds the key with make_key(), which returns a std::string or a
///    std::optional<std::string>; no key means this input bypasses the cache
///    and is computed outside the span;
///  - looks the key up in GlobalStore() as a `Cached`, and records a kMemo
///    hit/miss event labelled `label` into `explain` when a log is attached;
///  - on a hit returns replay(cached);
///  - on a miss returns compute(), after installing to_cached(result) unless
///    that is nullopt. Each site's conversion refuses every result whose
///    outcome is not kComplete (a budget stop, a captured fault), so a
///    partial result never outlives the call that produced it.
template <typename Cached, typename KeyFn, typename ComputeFn,
          typename ReplayFn, typename ToCachedFn>
std::invoke_result_t<ComputeFn&> CacheThrough(
    const char* span, const char* label, obs::ExplainLog* explain,
    KeyFn&& make_key, ComputeFn&& compute, ReplayFn&& replay,
    ToCachedFn&& to_cached) {
  if (!Enabled()) return compute();
  std::optional<obs::TraceSpan> trace;
  if (span != nullptr) trace.emplace(span);
  std::optional<std::string> key = make_key();
  if (!key.has_value()) {
    trace.reset();
    return compute();
  }
  Store& store = GlobalStore();
  std::shared_ptr<const Cached> hit = store.Get<Cached>(*key);
  if (obs::Wants(explain)) {
    obs::ExplainEvent e;
    e.kind = obs::ExplainKind::kMemo;
    e.label = label;
    e.detail = hit != nullptr ? "hit" : "miss";
    e.stats["hit"] = hit != nullptr ? 1 : 0;
    explain->Append(std::move(e));
  }
  if (hit != nullptr) return replay(*hit);
  std::invoke_result_t<ComputeFn&> result = compute();
  if (std::optional<Cached> cached = to_cached(result)) {
    store.Put(*key, std::move(*cached));
  }
  return result;
}

}  // namespace vqdr::memo

#endif  // VQDR_MEMO_CACHE_THROUGH_H_
