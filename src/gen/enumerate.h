#ifndef VQDR_GEN_ENUMERATE_H_
#define VQDR_GEN_ENUMERATE_H_

#include <cstdint>
#include <functional>

#include "data/instance.h"
#include "guard/budget.h"
#include "obs/explain.h"

namespace vqdr {

/// Options bounding exhaustive instance enumeration. Enumeration over a
/// schema with relations of arities a₁..aₘ and domain size n visits
/// 2^(n^a₁ + … + n^aₘ) instances — keep n small.
struct EnumerationOptions {
  /// Values range over {1..domain_size}.
  int domain_size = 2;

  /// Hard cap on the number of instances visited; enumeration stops (and
  /// reports truncation) beyond it.
  std::uint64_t max_instances = 1ull << 22;

  /// Worker count for the bounded searches built on this enumeration
  /// (core/finite_search): 1 = one chunk on the calling thread, 0 =
  /// par::DefaultThreads(), N > 1 = the instance space in ~8N chunks taken
  /// by N threads (par/pool.h), merged lowest index first. Every count
  /// returns the same result. Plain ForEachInstance* enumeration ignores
  /// this field.
  int threads = 1;

  /// Optional resource budget. When set, enumeration (and every search
  /// built on it) checkpoints once per instance and stops cleanly on
  /// deadline, step, memory, or cancellation; the sweep reports the stop
  /// reason instead of a covered space. nullptr = ungoverned.
  guard::Budget* budget = nullptr;

  /// Optional decision-provenance sink (DESIGN.md §10). Plain enumeration
  /// ignores it; the bounded searches in core/finite_search record a
  /// kCounterexample event (carrying both instances of the refuting pair)
  /// when a search finds one, and a kNote summarizing a clean sweep.
  obs::ExplainLog* explain = nullptr;
};

/// Result flag: did the enumeration cover the whole space?
struct EnumerationOutcome {
  bool complete = true;
  std::uint64_t visited = 0;

  /// Why the sweep ended: kComplete for a covered space or an early body
  /// stop; otherwise the budget's stop reason (max_instances truncation
  /// reports kStepBudgetExhausted).
  guard::Outcome outcome = guard::Outcome::kComplete;
};

/// Calls `body` for every instance over `schema` with active domain
/// contained in {1..domain_size}. A false return from `body` stops early
/// (outcome.complete stays true in that case — the search found what it
/// wanted). Hitting max_instances sets complete=false.
EnumerationOutcome ForEachInstance(
    const Schema& schema, const EnumerationOptions& options,
    const std::function<bool(const Instance&)>& body);

/// Same, but visits only one representative per isomorphism class
/// (deduplicated via canonical keys; costs |adom|! per instance).
EnumerationOutcome ForEachInstanceUpToIso(
    const Schema& schema, const EnumerationOptions& options,
    const std::function<bool(const Instance&)>& body);

/// All tuples of the given arity over `universe`, in lexicographic order of
/// positions in `universe`; arity 0 yields the one empty tuple.
std::vector<Tuple> UniverseTuples(int arity,
                                  const std::vector<Value>& universe);

/// Enumerates instances whose values are drawn from an explicit `universe`
/// (used by pre-image search, where view-extent values must be available),
/// in InstanceSpace order. `budget`, when non-null, is checkpointed once per
/// instance. A space InstanceSpace refuses is reported as an incomplete
/// sweep with `visited == 0`.
EnumerationOutcome ForEachInstanceOver(
    const Schema& schema, const std::vector<Value>& universe,
    std::uint64_t max_instances,
    const std::function<bool(const Instance&)>& body,
    guard::Budget* budget = nullptr);

/// The instance space ForEachInstanceOver walks, with random access: the
/// cross product of per-relation tuple-subset choices, with relation 0 the
/// most significant digit and subset masks ascending. `At(k)` (and
/// `ForRange`, which visits a contiguous index window) produce the k-th
/// instance of that order — the property the bounded searches rely on to
/// split the space into chunks while returning the same first
/// counterexample at every thread count.
class InstanceSpace {
 public:
  InstanceSpace(const Schema& schema, const std::vector<Value>& universe);

  /// False when some relation has 63 or more candidate tuples (2^63+
  /// subsets), the one space ForEachInstanceOver refuses; nothing can then
  /// be visited. A space of 2^64 or more instances stays indexable over its
  /// first 2^64 - 1.
  bool indexable() const { return indexable_; }

  /// Number of instances in the space, saturated at 2^64 - 1; 0 when not
  /// indexable().
  std::uint64_t total() const { return total_; }

  const Schema& schema() const { return schema_; }

  /// The instance at `index` in enumeration order. Requires indexable() and
  /// index < total().
  Instance At(std::uint64_t index) const;

  /// Visits indices [begin, end) in ascending order; a false return from
  /// `body` stops early. Amortizes decoding: only relations whose subset
  /// mask changed between neighbours are rebuilt.
  void ForRange(
      std::uint64_t begin, std::uint64_t end,
      const std::function<bool(std::uint64_t, const Instance&)>& body) const;

 private:
  void DecodeMasks(std::uint64_t index, std::vector<std::uint64_t>* masks) const;
  Relation RelationForMask(std::size_t i, std::uint64_t mask) const;

  Schema schema_;
  std::vector<std::vector<Tuple>> pools_;
  bool indexable_ = true;
  std::uint64_t total_ = 1;
};

}  // namespace vqdr

#endif  // VQDR_GEN_ENUMERATE_H_
