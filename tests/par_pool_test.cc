// Unit tests for the chunk cursor and the deterministic sharding primitives
// (src/par), plus the indexed instance space they shard (gen/enumerate.h
// InstanceSpace) — the pieces the bounded searches are built from.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/finite_search.h"
#include "cq/conjunctive_query.h"
#include "gen/enumerate.h"
#include "par/pool.h"
#include "par/shard.h"

namespace vqdr {
namespace {

// ---- ParallelForChunks ----

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
  constexpr std::uint64_t kChunks = 97;
  std::vector<std::atomic<int>> seen(kChunks);
  par::ParallelForChunks(4, kChunks,
                         [&seen](std::uint64_t c) { seen[c].fetch_add(1); });
  for (std::uint64_t c = 0; c < kChunks; ++c) {
    EXPECT_EQ(seen[c].load(), 1) << "chunk " << c;
  }
}

// Below two threads nothing is spawned: the caller runs every chunk, in
// ascending order, which is how a threads = 1 search stays a serial walk.
TEST(ParallelForChunks, FewerThanTwoThreadsRunEveryChunkInOrderOnTheCaller) {
  EXPECT_GE(par::DefaultThreads(), 1);
  const std::thread::id caller = std::this_thread::get_id();
  for (int threads : {-2, 0, 1}) {
    std::vector<std::uint64_t> order;
    bool on_caller = true;
    EXPECT_EQ(par::ParallelForChunks(threads, 20,
                                     [&](std::uint64_t c) {
                                       order.push_back(c);
                                       on_caller = on_caller &&
                                           std::this_thread::get_id() == caller;
                                     }),
              0u);
    ASSERT_EQ(order.size(), 20u) << "threads " << threads;
    for (std::uint64_t c = 0; c < order.size(); ++c) EXPECT_EQ(order[c], c);
    EXPECT_TRUE(on_caller) << "threads " << threads;
  }
  EXPECT_EQ(par::ParallelForChunks(8, 0, [](std::uint64_t) { FAIL(); }), 0u);
}

// One thread per chunk at most: a 3-chunk call at threads = 8 runs on at
// most 3 threads, and a 1-chunk call on the caller alone.
TEST(ParallelForChunks, SpawnsNoMoreThreadsThanChunks) {
  for (std::uint64_t chunks : {1ull, 3ull}) {
    std::mutex mu;
    std::set<std::thread::id> ran_on;
    par::ParallelForChunks(8, chunks, [&](std::uint64_t) {
      std::lock_guard<std::mutex> lock(mu);
      ran_on.insert(std::this_thread::get_id());
    });
    EXPECT_GE(ran_on.size(), 1u);
    EXPECT_LE(ran_on.size(), chunks);
    if (chunks == 1) {
      EXPECT_EQ(*ran_on.begin(), std::this_thread::get_id());
    }
  }
}

// A throwing chunk is captured, counted and handed back; every other chunk
// still runs, at every thread count.
TEST(ParallelForChunks, CapturesAThrowingChunkAndRunsTheRest) {
  for (int threads : {1, 2, 8}) {
    std::atomic<int> ran{0};
    std::exception_ptr error;
    const std::uint64_t errors = par::ParallelForChunks(
        threads, 40,
        [&ran](std::uint64_t c) {
          if (c == 7 || c == 30) throw std::runtime_error("chunk failed");
          ran.fetch_add(1);
        },
        &error);
    EXPECT_EQ(errors, 2u) << "threads " << threads;
    EXPECT_EQ(ran.load(), 38) << "threads " << threads;
    ASSERT_TRUE(error != nullptr);
    EXPECT_THROW(std::rethrow_exception(error), std::runtime_error);
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

// {E/2, F/2} over 6 values has 72 candidate tuples, 2^72 instances: past
// 64-bit indices, yet every relation's subsets fit one digit, so the space is
// indexed over its first 2^64 - 1 instances and the searches sweep a
// max_instances prefix of it like any other.
TEST(InstanceSpace, IndexesPrefixOfSpacesPastTwoToThe64) {
  Schema schema{{"E", 2}, {"F", 2}};
  std::vector<Value> universe;
  for (int v = 1; v <= 6; ++v) universe.push_back(Value(v));
  InstanceSpace space(schema, universe);
  ASSERT_TRUE(space.indexable());

  std::vector<Instance> walked;
  EnumerationOutcome outcome =
      ForEachInstanceOver(schema, universe, 200, [&](const Instance& d) {
        walked.push_back(d);
        return true;
      });
  EXPECT_FALSE(outcome.complete);
  EXPECT_EQ(outcome.visited, 201u);
  ASSERT_EQ(walked.size(), 200u);
  for (std::uint64_t k = 0; k < walked.size(); ++k) {
    EXPECT_EQ(space.At(k), walked[k]) << "index " << k;
  }

  // V(x, y) :- F(x, y) determines Q(x) :- F(x, y): no conflict, so both
  // thread counts sweep the whole 2000-instance prefix.
  ViewSet views;
  ConjunctiveQuery v("V", {Term::Var("x"), Term::Var("y")});
  v.AddAtom(Atom{"F", {Term::Var("x"), Term::Var("y")}});
  views.Add("V", Query::FromCq(v));
  ConjunctiveQuery q("Q", {Term::Var("x")});
  q.AddAtom(Atom{"F", {Term::Var("x"), Term::Var("y")}});
  EnumerationOptions options;
  options.domain_size = 6;
  options.max_instances = 2000;
  DeterminacySearchResult serial =
      SearchDeterminacyCounterexample(views, Query::FromCq(q), schema, options);
  options.threads = 4;
  DeterminacySearchResult sharded =
      SearchDeterminacyCounterexample(views, Query::FromCq(q), schema, options);
  EXPECT_EQ(serial.verdict, SearchVerdict::kBudgetExhausted);
  EXPECT_EQ(serial.outcome, guard::Outcome::kStepBudgetExhausted);
  EXPECT_EQ(serial.instances_examined, 2000u);
  EXPECT_EQ(sharded.verdict, serial.verdict);
  EXPECT_EQ(sharded.outcome, serial.outcome);
  EXPECT_EQ(sharded.instances_examined, serial.instances_examined);
  EXPECT_EQ(sharded.counterexample.has_value(),
            serial.counterexample.has_value());
}

}  // namespace
}  // namespace vqdr
