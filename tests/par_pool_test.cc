// Unit tests for the work-stealing pool and the deterministic sharding
// primitives (src/par), plus the indexed instance space they shard
// (gen/enumerate.h InstanceSpace) — the pieces the parallel searches are
// built from.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "gen/enumerate.h"
#include "par/pool.h"
#include "par/shard.h"

namespace vqdr {
namespace {

// ---- ThreadPool ----

TEST(ThreadPool, RunsEverySubmittedTask) {
  par::ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&count] { count.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, WaitCoversNestedSubmissions) {
  par::ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 8; ++i) {
    pool.Submit([&pool, &count] {
      for (int j = 0; j < 4; ++j) {
        pool.Submit([&count] { count.fetch_add(1); });
      }
    });
  }
  pool.Wait();
  EXPECT_EQ(count.load(), 32);
}

TEST(ThreadPool, ReusableAcrossWaitRounds) {
  par::ThreadPool pool(2);
  std::atomic<int> count{0};
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 10; ++i) {
      pool.Submit([&count] { count.fetch_add(1); });
    }
    pool.Wait();
    EXPECT_EQ(count.load(), (round + 1) * 10);
  }
}

TEST(ThreadPool, DestructorDrainsQueuedTasks) {
  std::atomic<int> count{0};
  {
    par::ThreadPool pool(2);
    for (int i = 0; i < 50; ++i) {
      pool.Submit([&count] { count.fetch_add(1); });
    }
    // No Wait: destruction itself must drain and join.
  }
  EXPECT_EQ(count.load(), 50);
}

TEST(ThreadPool, SizeAndDefaultThreads) {
  par::ThreadPool pool(3);
  EXPECT_EQ(pool.size(), 3);
  EXPECT_GE(par::DefaultThreads(), 1);
}

// DefaultThreads promises a count >= 1, so a VQDR_THREADS value that does
// not fit an int (narrowed, "2147483648" would read as INT_MIN) falls back
// to the hardware default like any other invalid value.
TEST(ThreadPool, DefaultThreadsRejectsOutOfRangeEnv) {
  const char* saved = std::getenv("VQDR_THREADS");
  const std::string restore = saved != nullptr ? saved : "";
  ::unsetenv("VQDR_THREADS");
  const int fallback = par::DefaultThreads();
  for (const char* bad :
       {"2147483648", "99999999999999999999", "-1", "0", "3x", ""}) {
    ::setenv("VQDR_THREADS", bad, 1);
    EXPECT_EQ(par::DefaultThreads(), fallback) << "'" << bad << "'";
  }
  ::setenv("VQDR_THREADS", "2147483647", 1);
  EXPECT_EQ(par::DefaultThreads(), 2147483647);
  ::setenv("VQDR_THREADS", "3", 1);
  EXPECT_EQ(par::DefaultThreads(), 3);
  if (saved != nullptr) {
    ::setenv("VQDR_THREADS", restore.c_str(), 1);
  } else {
    ::unsetenv("VQDR_THREADS");
  }
}

TEST(ThreadPool, ResolveThreadsIsOneRuleForEveryOption) {
  EXPECT_EQ(par::ResolveThreads(0), par::DefaultThreads());
  EXPECT_EQ(par::ResolveThreads(-1), 1);
  EXPECT_EQ(par::ResolveThreads(-64), 1);
  EXPECT_EQ(par::ResolveThreads(1), 1);
  EXPECT_EQ(par::ResolveThreads(6), 6);
}

TEST(ThreadPool, ParallelForChunksCoversEveryIdOnce) {
  par::ThreadPool pool(4);
  constexpr std::uint64_t kChunks = 97;
  std::vector<std::atomic<int>> seen(kChunks);
  par::ParallelForChunks(pool, kChunks,
                         [&seen](std::uint64_t c) { seen[c].fetch_add(1); });
  for (std::uint64_t c = 0; c < kChunks; ++c) {
    EXPECT_EQ(seen[c].load(), 1) << "chunk " << c;
  }
}

// ---- PlanShards ----

TEST(PlanShards, PartitionsTheIndexSpaceExactly) {
  for (std::uint64_t total : {0ull, 1ull, 15ull, 16ull, 17ull, 1000ull,
                              4096ull, 100000ull}) {
    for (int threads : {1, 2, 8}) {
      par::ShardPlan plan = par::PlanShards(total, threads);
      std::uint64_t covered = 0;
      for (std::uint64_t c = 0; c < plan.num_chunks; ++c) {
        EXPECT_EQ(plan.Begin(c), covered);
        EXPECT_GT(plan.End(c), plan.Begin(c));
        covered = plan.End(c);
      }
      EXPECT_EQ(covered, total) << total << " across " << threads;
    }
  }
}

TEST(PlanShards, DeterministicInTotalAndThreads) {
  par::ShardPlan a = par::PlanShards(12345, 8);
  par::ShardPlan b = par::PlanShards(12345, 8);
  EXPECT_EQ(a.chunk, b.chunk);
  EXPECT_EQ(a.num_chunks, b.num_chunks);
}

TEST(PlanShards, RespectsChunkClamp) {
  // Tiny total: chunk clamps up to min_chunk.
  EXPECT_EQ(par::PlanShards(100, 8, 16, 4096).chunk, 16u);
  // Huge total: chunk clamps down to max_chunk.
  EXPECT_EQ(par::PlanShards(1u << 20, 1, 16, 4096).chunk, 4096u);
}

// ---- FirstHit ----

TEST(FirstHit, ConcurrentImprovementsConvergeToMinimum) {
  par::FirstHit hit;
  EXPECT_EQ(hit.best(), par::FirstHit::kNone);
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&hit, t] {
      for (std::uint64_t i = 1000; i-- > 0;) {
        hit.TryImprove(i * 8 + static_cast<std::uint64_t>(t));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(hit.best(), 0u);
}

TEST(FirstHit, TryImproveReportsOnlyGenuineImprovements) {
  par::FirstHit hit;
  EXPECT_TRUE(hit.TryImprove(10));
  EXPECT_FALSE(hit.TryImprove(10));
  EXPECT_FALSE(hit.TryImprove(11));
  EXPECT_TRUE(hit.TryImprove(3));
}

// ---- InstanceSpace vs the serial enumeration ----

TEST(InstanceSpace, MatchesSerialEnumerationOrder) {
  Schema schema{{"E", 2}, {"P", 1}};
  std::vector<Value> universe{Value(1), Value(2)};
  InstanceSpace space(schema, universe);
  ASSERT_TRUE(space.indexable());

  std::vector<Instance> serial;
  ForEachInstanceOver(schema, universe, 1ull << 22, [&](const Instance& d) {
    serial.push_back(d);
    return true;
  });
  ASSERT_EQ(space.total(), serial.size());

  for (std::uint64_t k = 0; k < space.total(); ++k) {
    EXPECT_EQ(space.At(k), serial[k]) << "index " << k;
  }
}

TEST(InstanceSpace, ForRangeMatchesAtOnArbitraryWindows) {
  Schema schema{{"E", 2}};
  std::vector<Value> universe{Value(1), Value(2)};
  InstanceSpace space(schema, universe);
  ASSERT_TRUE(space.indexable());
  ASSERT_EQ(space.total(), 16u);

  for (std::uint64_t begin : {0ull, 3ull, 7ull, 15ull}) {
    for (std::uint64_t end : {0ull, 1ull, 8ull, 16ull}) {
      if (begin > end) continue;
      std::uint64_t expect = begin;
      space.ForRange(begin, end, [&](std::uint64_t idx, const Instance& d) {
        EXPECT_EQ(idx, expect);
        EXPECT_EQ(d, space.At(idx));
        ++expect;
        return true;
      });
      EXPECT_EQ(expect, end);
    }
  }
}

TEST(InstanceSpace, EarlyExitStopsForRange) {
  Schema schema{{"E", 2}};
  InstanceSpace space(schema, {Value(1), Value(2)});
  int visits = 0;
  space.ForRange(0, 16, [&](std::uint64_t, const Instance&) {
    ++visits;
    return visits < 5;
  });
  EXPECT_EQ(visits, 5);
}

TEST(InstanceSpace, RefusesOversizedSpaces) {
  // Arity 3 over 4 values: 64 tuples in the pool → 2^64 subsets.
  Schema schema{{"T", 3}};
  std::vector<Value> universe;
  for (int v = 1; v <= 4; ++v) universe.push_back(Value(v));
  InstanceSpace space(schema, universe);
  EXPECT_FALSE(space.indexable());
}

}  // namespace
}  // namespace vqdr
