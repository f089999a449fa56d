#ifndef VQDR_CHASE_CHAIN_H_
#define VQDR_CHASE_CHAIN_H_

#include <vector>

#include "cq/canonical.h"
#include "cq/conjunctive_query.h"
#include "guard/budget.h"
#include "obs/explain.h"
#include "views/view_set.h"

namespace vqdr {

/// The chase chain {D_k, S_k, S'_k, D'_k} from the proof of Theorem 3.3.
///
///   D_0  = [Q]              S_0  = V([Q])
///   S'_0 = ∅                D'_0 = V_∅^{-1}(S_0)
///   S'_{k+1} = V(D'_k)      D_{k+1} = V_{D_k}^{-1}(S'_{k+1})
///   S_{k+1}  = V(D_{k+1})   D'_{k+1} = V_{D'_k}^{-1}(S_{k+1})
///
/// (The last step reads S'_{k+1} in the paper's text, which is a typo: with
/// S'_{k+1} = V(D'_k) the chase would add nothing and the chain would not
/// interleave; Proposition 3.6's properties 2/4/5 pin down the recurrence
/// used here, and the tests verify those properties hold level by level.)
///
/// D_∞ = ∪D_k and D'_∞ = ∪D'_k have equal view images but, when Q is not
/// determined, different query answers — the paper's separating pair.
struct ChaseChain {
  /// The frozen query [Q] and its head (level-0 data).
  FrozenQuery frozen_query;

  /// Levels 0..n of each sequence.
  std::vector<Instance> d;        // D_k
  std::vector<Instance> s;        // S_k
  std::vector<Instance> s_prime;  // S'_k
  std::vector<Instance> d_prime;  // D'_k

  /// Why the build ended. kComplete when all requested levels were built;
  /// otherwise the budget's stop reason (kInternalError for a captured
  /// allocation failure).
  /// Levels are only appended whole: whatever the outcome, every level
  /// present is exact.
  guard::Outcome outcome = guard::Outcome::kComplete;
};

/// Knobs for BuildChaseChain.
struct ChaseChainOptions {
  /// Builds levels 0..levels (levels+1 in total).
  int levels = 0;

  /// Optional resource budget: checkpointed per chased view tuple and
  /// charged per materialized atom; spec().max_chase_levels additionally
  /// caps the chain depth. A trip truncates the chain at a level boundary —
  /// the partially-built level is discarded. nullptr = ungoverned.
  guard::Budget* budget = nullptr;

  /// Optional decision-provenance sink (DESIGN.md §10): one kChaseLevel
  /// event per completed level carrying the four instance sizes (|D_k|,
  /// |S_k|, |S'_k|, |D'_k|) and the count of fresh nulls the level minted,
  /// plus kMemo events for cache probes. nullptr (the default) records
  /// nothing.
  obs::ExplainLog* explain = nullptr;
};

/// Builds `levels`+1 levels of the chain for pure CQ views and query,
/// beating the op once per completed level.
///
/// With the process memo switch on (memo/memo.h), the chain is cached in
/// memo::GlobalStore() under an exact key (views + query serialization +
/// levels + factory state), and only when the build ran to kComplete; a hit
/// replays the factory advance so the caller observes byte-identical state.
/// A miss also caches each chase-back step through ViewInverse. See
/// DESIGN.md §9.
ChaseChain BuildChaseChain(const ViewSet& views, const ConjunctiveQuery& q,
                           int levels, ValueFactory& factory);

/// Governed variant: same chain, bounded by options.budget.
ChaseChain BuildChaseChain(const ViewSet& views, const ConjunctiveQuery& q,
                           const ChaseChainOptions& options,
                           ValueFactory& factory);

}  // namespace vqdr

#endif  // VQDR_CHASE_CHAIN_H_
