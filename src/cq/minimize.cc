#include "cq/minimize.h"

#include <memory>
#include <optional>
#include <string>

#include "base/check.h"
#include "cq/containment.h"
#include "cq/fingerprint.h"
#include "cq/serialize.h"
#include "memo/cache_through.h"
#include "memo/snapshot.h"

namespace vqdr {

namespace {

// Snapshot codecs for the minimized-query caches (DESIGN.md §14). Bump the
// tag version if the CQ wire encoding ever changes.
std::string EncodeCqPayload(const ConjunctiveQuery& q) {
  wire::Encoder enc;
  EncodeCq(q, enc);
  return enc.Take();
}

std::shared_ptr<const ConjunctiveQuery> DecodeCqPayload(
    std::string_view payload) {
  wire::Decoder dec(payload);
  auto q = std::make_shared<ConjunctiveQuery>();
  if (!DecodeCq(dec, q.get()) || !dec.AtEnd()) return nullptr;
  return q;
}

std::string EncodeUcqPayload(const UnionQuery& q) {
  wire::Encoder enc;
  EncodeUcq(q, enc);
  return enc.Take();
}

std::shared_ptr<const UnionQuery> DecodeUcqPayload(std::string_view payload) {
  wire::Decoder dec(payload);
  auto q = std::make_shared<UnionQuery>();
  // A cached minimized UCQ is never empty (MinimizeUcq checks), and an
  // empty one would abort head_name() on a later hit; reject it here.
  if (!DecodeUcq(dec, q.get()) || !dec.AtEnd() || q->empty()) return nullptr;
  return q;
}

[[maybe_unused]] const bool kCqCodecRegistered =
    memo::RegisterSnapshotType<ConjunctiveQuery>("cq.v1", EncodeCqPayload,
                                                 DecodeCqPayload);
[[maybe_unused]] const bool kUcqCodecRegistered =
    memo::RegisterSnapshotType<UnionQuery>("ucq.v1", EncodeUcqPayload,
                                           DecodeUcqPayload);

// Greedy atom removal. Order-independent up to isomorphism: every
// equivalence-preserving removal sequence terminates in a core of q, and
// cores are unique up to isomorphism (Chandra–Merlin). The IsSafe skip
// cannot change that — an unsafe candidate drops a head variable's last
// positive occurrence and is never equivalent to q, so no removal sequence
// could take it anyway. canonical_seam_test.cc checks this property on
// random shuffled queries.
ConjunctiveQuery MinimizeCqImpl(const ConjunctiveQuery& q) {
  ConjunctiveQuery current = q;
  bool changed = true;
  while (changed) {
    changed = false;
    for (std::size_t i = 0; i < current.atoms().size(); ++i) {
      ConjunctiveQuery candidate(current.head_name(), current.head_terms());
      for (std::size_t j = 0; j < current.atoms().size(); ++j) {
        if (j != i) candidate.AddAtom(current.atoms()[j]);
      }
      if (!candidate.IsSafe()) continue;
      // Removing an atom weakens the query (current ⊆ candidate always);
      // equivalence needs candidate ⊆ current.
      if (CqContainedIn(candidate, current)) {
        current = candidate;
        changed = true;
        break;
      }
    }
  }
  return current;
}

}  // namespace

ConjunctiveQuery MinimizeCq(const ConjunctiveQuery& q) {
  VQDR_CHECK(q.IsPureCq()) << "MinimizeCq requires a pure CQ";
  return memo::CacheThrough<ConjunctiveQuery>(
      /*span=*/nullptr, "cq.min", /*explain=*/nullptr,
      // Exact key, not the canonical fingerprint: the minimized query keeps
      // q's concrete variable names and atom order, so isomorphic-but-
      // distinct inputs must not share an entry (byte-identical replay).
      // Isomorphic inputs still share work through the memoized containment
      // calls inside the greedy loop.
      [&] { return "cq.min|" + ExactCqKey(q); },
      [&] { return MinimizeCqImpl(q); },
      [](const ConjunctiveQuery& hit) { return hit; },
      [](const ConjunctiveQuery& core) { return std::optional(core); });
}

namespace {

UnionQuery MinimizeUcqImpl(const UnionQuery& q) {
  // Drop disjuncts subsumed by another disjunct, keeping earlier ones.
  std::vector<ConjunctiveQuery> kept;
  for (std::size_t i = 0; i < q.disjuncts().size(); ++i) {
    const ConjunctiveQuery& candidate = q.disjuncts()[i];
    bool subsumed = false;
    for (std::size_t j = 0; j < q.disjuncts().size(); ++j) {
      if (i == j) continue;
      // Candidate is subsumed by a disjunct that is not itself dropped in
      // favour of candidate: break ties by index.
      if (CqContainedIn(candidate, q.disjuncts()[j])) {
        bool reverse = CqContainedIn(q.disjuncts()[j], candidate);
        if (!reverse || j < i) {
          subsumed = true;
          break;
        }
      }
    }
    if (!subsumed) kept.push_back(MinimizeCq(candidate));
  }
  UnionQuery result;
  for (ConjunctiveQuery& d : kept) result.AddDisjunct(std::move(d));
  VQDR_CHECK(!result.empty());
  return result;
}

}  // namespace

UnionQuery MinimizeUcq(const UnionQuery& q) {
  VQDR_CHECK(q.IsPureUcq()) << "MinimizeUcq requires a pure UCQ";
  return memo::CacheThrough<UnionQuery>(
      /*span=*/nullptr, "ucq.min", /*explain=*/nullptr,
      [&] { return "ucq.min|" + ExactUcqKey(q); },
      [&] { return MinimizeUcqImpl(q); },
      [](const UnionQuery& hit) { return hit; },
      [](const UnionQuery& minimized) { return std::optional(minimized); });
}

}  // namespace vqdr
