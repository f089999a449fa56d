#ifndef VQDR_CQ_MATCHER_IMPL_H_
#define VQDR_CQ_MATCHER_IMPL_H_

// Internal seam between ForEachMatch (matcher.cc) and the indexed-join
// homomorphism-search engine (matcher_indexed.cc). Not part of the public
// API; tests include it only to reach the stats struct.

#include <cstdint>
#include <functional>
#include <vector>

#include "cq/matcher.h"

namespace vqdr::matcher_internal {

// Stack-local tally for one ForEachMatch call, flushed to the obs counters
// once at the end — keeps atomic traffic out of the recursion entirely.
struct MatchStats {
  // Candidate tuples actually tried against an atom (the index-intersected
  // candidate set only).
  std::uint64_t attempts = 0;
  // Full homomorphisms delivered to on_match.
  std::uint64_t matches = 0;
  // Per-(relation, position) posting-list index constructions.
  std::uint64_t index_builds = 0;
  // Posting-list probes during candidate-set intersection.
  std::uint64_t index_lookups = 0;
  // Total candidates surviving index intersection across all nodes.
  std::uint64_t index_candidates = 0;
  // Candidates discarded because some future atom's domain wiped out.
  std::uint64_t fc_prunes = 0;
  // Candidate loops cut short by conflict-directed backjumping.
  std::uint64_t bj_jumps = 0;
  // Candidates skipped as symmetric images of an already-failed candidate.
  std::uint64_t sym_skips = 0;
};

// The indexed-join engine (DESIGN.md §12). Enumerates exactly the
// homomorphisms the naive backtracking oracle (tests/matcher_oracle.h)
// enumerates, in exactly the same order; returns false iff stopped early
// (on_match veto or budget stop).
bool IndexedMatch(const std::vector<Atom>& atoms, const Instance& db,
                  const Binding& initial,
                  const std::function<bool(const Match&)>& on_match,
                  MatchStats& stats, guard::Budget* budget);

}  // namespace vqdr::matcher_internal

#endif  // VQDR_CQ_MATCHER_IMPL_H_
