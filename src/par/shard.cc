#include "par/shard.h"

namespace vqdr::par {

ShardPlan PlanShards(std::uint64_t total, int threads,
                     std::uint64_t min_chunk, std::uint64_t max_chunk) {
  if (threads < 1) threads = 1;
  if (min_chunk < 1) min_chunk = 1;
  if (max_chunk < min_chunk) max_chunk = min_chunk;

  ShardPlan plan;
  plan.total = total;
  if (total == 0) {
    plan.chunk = min_chunk;
    plan.num_chunks = 0;
    return plan;
  }
  // ~8 chunks per worker lets the cursor balance uneven chunks without
  // paying per-chunk overhead on tiny ones.
  std::uint64_t target_chunks =
      static_cast<std::uint64_t>(threads) * 8;
  std::uint64_t chunk = (total + target_chunks - 1) / target_chunks;
  if (chunk < min_chunk) chunk = min_chunk;
  if (chunk > max_chunk) chunk = max_chunk;
  plan.chunk = chunk;
  plan.num_chunks = (total + chunk - 1) / chunk;
  return plan;
}

}  // namespace vqdr::par
