#ifndef VQDR_PAR_SHARD_H_
#define VQDR_PAR_SHARD_H_

#include <atomic>
#include <cstdint>

// Deterministic sharding and merge primitives for the chunk cursor in
// par/pool.h, used by the bounded searches in core/finite_search.
//
// The contract the parallel searches honour: the *answer* is a pure
// function of the input, never of the schedule. The pieces here make that
// cheap to get right:
//
//  * ShardPlan/PlanShards — a chunking of an index space [0, total) that
//    depends only on (total, threads), so a run at a given thread count
//    always produces the same chunks, and merged results can be assembled
//    in chunk order.
//  * FirstHit — a monotonically-decreasing atomic index used as a *pruning
//    hint*: once some worker has found a hit at index i, chunks that start
//    beyond i can be skipped, because the lowest-index hit wins the merge
//    and every candidate in such a chunk has a larger index. Skipping is a
//    pure optimisation; the merge never reads the hint.
//
// Stopping is not a par concern: the searches' chunks checkpoint the
// caller's guard::Budget before each instance and read its sticky stop
// reason.

namespace vqdr::par {

/// A fixed chunking of [0, total). Chunk c covers [Begin(c), End(c)).
struct ShardPlan {
  std::uint64_t total = 0;
  std::uint64_t chunk = 1;
  std::uint64_t num_chunks = 0;

  std::uint64_t Begin(std::uint64_t c) const { return c * chunk; }
  std::uint64_t End(std::uint64_t c) const {
    std::uint64_t e = (c + 1) * chunk;
    return e < total ? e : total;
  }
  std::uint64_t Size(std::uint64_t c) const { return End(c) - Begin(c); }
};

/// Plans chunks for `total` units across `threads` workers. Deterministic in
/// (total, threads): aims for ~8 chunks per worker (so a worker that drew
/// cheap chunks takes more of them) with the chunk size clamped to
/// [min_chunk, max_chunk].
ShardPlan PlanShards(std::uint64_t total, int threads,
                     std::uint64_t min_chunk = 16,
                     std::uint64_t max_chunk = 4096);

/// A concurrent lowest-index-wins cell. Workers publish candidate indices;
/// best() only ever decreases. Payloads are kept in per-chunk storage and
/// resolved by the deterministic merge — this cell is just the pruning hint.
class FirstHit {
 public:
  static constexpr std::uint64_t kNone = ~0ull;

  /// Lowers the best index to `index` if it improves it. Returns true when
  /// `index` became the new best.
  bool TryImprove(std::uint64_t index) {
    std::uint64_t cur = best_.load(std::memory_order_relaxed);
    while (index < cur) {
      if (best_.compare_exchange_weak(cur, index,
                                      std::memory_order_relaxed)) {
        return true;
      }
    }
    return false;
  }

  std::uint64_t best() const { return best_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> best_{kNone};
};

}  // namespace vqdr::par

#endif  // VQDR_PAR_SHARD_H_
