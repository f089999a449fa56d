// Memo subsystem hot-path win: repeat-heavy workloads timed cold (memo off)
// once, then warm against a pre-warmed store. Each benchmark reports
// `hit_rate` (store hits / lookups across the timed loop) and
// `speedup_vs_cold` (cold wall time / warm wall time for the same
// workload), so the emitted BENCH_memo.json carries the cache's measured
// value wherever it runs. Verdicts are identical either way — the
// differential battery (test_memo_differential) holds that line; only the
// wall clock moves here.

#include <benchmark/benchmark.h>

#include <chrono>
#include <functional>
#include <utility>
#include <vector>

#include "bench_json.h"

#include "core/determinacy.h"
#include "cq/containment.h"
#include "gen/random_query.h"
#include "gen/workloads.h"
#include "memo/memo.h"
#include "memo/snapshot.h"
#include "memo/store.h"

namespace vqdr {
namespace {

double SecondsPerRun(const std::function<void()>& run) {
  auto start = std::chrono::steady_clock::now();
  run();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

// Times one run with the memo off.
double ColdSecondsPerRun(const std::function<void()>& run) {
  memo::ScopedEnable off(false);
  return SecondsPerRun(run);
}

// Attaches the two headline counters from a timed cold run, a timed warm
// run, and the store's stats delta across the benchmark loop.
void ReportMemoCounters(benchmark::State& state, double cold_seconds,
                        double warm_seconds,
                        const memo::StatsSnapshot& delta) {
  double lookups = static_cast<double>(delta.hits + delta.misses);
  state.counters["hit_rate"] =
      lookups > 0 ? static_cast<double>(delta.hits) / lookups : 0.0;
  state.counters["speedup_vs_cold"] =
      warm_seconds > 0 ? cold_seconds / warm_seconds : 0.0;
}

// A chain query with a head-to-tail disequality: containment against itself
// *holds*, so the identification-pattern sweep cannot early-exit and cold
// runs pay the full Bell-number sweep over the chain's variables.
ConjunctiveQuery DiseqChain(int length) {
  ConjunctiveQuery q = ChainQuery(length);
  q.AddDisequality(Term::Var("x0"), Term::Var("x" + std::to_string(length)));
  return q;
}

// A ≠-laden containment slate dominated by positive (full-sweep) checks:
// the pattern sweeps dominate cold runs, a fingerprint + lookup dominates
// warm ones.
std::vector<std::pair<ConjunctiveQuery, ConjunctiveQuery>>
ContainmentSlate() {
  std::vector<std::pair<ConjunctiveQuery, ConjunctiveQuery>> slate;
  for (int length = 4; length <= 6; ++length) {
    slate.emplace_back(DiseqChain(length), DiseqChain(length));
  }
  slate.emplace_back(DiseqChain(5), DiseqChain(4));
  slate.emplace_back(ChainQuery(5), ChainQuery(3));
  RandomCqOptions opts;
  opts.max_atoms = 4;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    Rng rng(seed);
    ConjunctiveQuery a = RandomCq(rng, opts);
    ConjunctiveQuery b = RandomCq(rng, opts);
    slate.emplace_back(a, b);
  }
  return slate;
}

void BM_MemoContainmentWarm(benchmark::State& state) {
  auto slate = ContainmentSlate();
  auto run = [&slate] {
    for (const auto& [a, b] : slate) {
      bool r = CqContainedIn(a, b);
      benchmark::DoNotOptimize(r);
    }
  };

  double cold_seconds = ColdSecondsPerRun(run);

  memo::Store store(4096);
  memo::ScopedEnable on(true, &store);
  run();  // warm the store once, outside the timed loop

  memo::StatsSnapshot before = store.Stats();
  for (auto _ : state) run();
  memo::StatsSnapshot delta = store.Stats().Delta(before);
  double warm_seconds = SecondsPerRun(run);
  ReportMemoCounters(state, cold_seconds, warm_seconds, delta);
}
BENCHMARK(BM_MemoContainmentWarm)->Unit(benchmark::kMillisecond);

void BM_MemoDeterminacyBatchWarm(benchmark::State& state) {
  // A batch whose items repeat (every pair appears three times): even a
  // single batch submission amortizes each decision across its duplicates,
  // and re-submissions are pure hits.
  std::vector<std::pair<ViewSet, ConjunctiveQuery>> items;
  for (int length = 3; length <= 5; ++length) {
    items.emplace_back(PathViews(2), ChainQuery(length));
  }
  RandomCqOptions opts;
  opts.max_atoms = 4;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    Rng rng(seed);
    ViewSet views = RandomCqViews(rng, opts, /*count=*/2);
    items.emplace_back(std::move(views), RandomCq(rng, opts));
  }
  // Triplicate the slate: duplicates amortize within one submission, and
  // re-submissions are pure hits.
  auto base = items;
  for (int copy = 0; copy < 2; ++copy) {
    items.insert(items.end(), base.begin(), base.end());
  }

  auto run = [&] {
    for (const auto& [views, query] : items) {
      auto r = DecideUnrestrictedDeterminacy(views, query);
      benchmark::DoNotOptimize(r);
    }
  };
  double cold_seconds = ColdSecondsPerRun(run);

  memo::Store store(4096);
  memo::ScopedEnable on(true, &store);
  run();

  memo::StatsSnapshot before = store.Stats();
  for (auto _ : state) run();
  memo::StatsSnapshot delta = store.Stats().Delta(before);
  double warm_seconds = SecondsPerRun(run);
  ReportMemoCounters(state, cold_seconds, warm_seconds, delta);
}
BENCHMARK(BM_MemoDeterminacyBatchWarm)->Unit(benchmark::kMillisecond);

void BM_MemoIsomorphSharing(benchmark::State& state) {
  // Sixteen renamed/reshuffled copies of one expensive containment check:
  // canonical keys fold them all onto a single cache entry, so the warm
  // workload pays one computation plus fifteen fingerprints.
  ConjunctiveQuery base1 = DiseqChain(5);
  ConjunctiveQuery base2 = DiseqChain(5);

  std::vector<ConjunctiveQuery> copies;
  for (int i = 0; i < 16; ++i) {
    copies.push_back(base1.RenameVariables(
        [i](const std::string& v) { return v + "_" + std::to_string(i); }));
  }

  auto run = [&] {
    for (const ConjunctiveQuery& q : copies) {
      bool r = CqContainedIn(q, base2);
      benchmark::DoNotOptimize(r);
    }
  };
  double cold_seconds = ColdSecondsPerRun(run);

  memo::Store store(256);
  memo::ScopedEnable on(true, &store);
  run();

  memo::StatsSnapshot before = store.Stats();
  for (auto _ : state) run();
  memo::StatsSnapshot delta = store.Stats().Delta(before);
  double warm_seconds = SecondsPerRun(run);
  ReportMemoCounters(state, cold_seconds, warm_seconds, delta);
}
BENCHMARK(BM_MemoIsomorphSharing)->Unit(benchmark::kMillisecond);

// Cold boot vs warm boot (DESIGN.md §14): the restart story in one number.
// Cold = a fresh process computes the determinacy slate from scratch. Warm =
// a fresh process restores the snapshot image first, then serves the same
// slate from hits. `warm_boot_speedup` is time-to-first-results cold over
// warm (snapshot load included in the warm side); `snapshot_load_ms` and
// `snapshot_bytes` price the restore itself.
void BM_MemoSnapshotWarmBoot(benchmark::State& state) {
  // A mixed first-batch: the ≠-laden containment slate (full Bell-number
  // sweeps when cold, bool.v1 snapshot entries) plus a determinacy batch
  // (chase work when cold, det.v1/chase.* snapshot entries). A cold boot
  // computes all of it; a warm boot pays a snapshot load plus one
  // exact-key lookup per item.
  auto slate = ContainmentSlate();
  std::vector<std::pair<ViewSet, ConjunctiveQuery>> items;
  for (int length = 3; length <= 5; ++length) {
    items.emplace_back(PathViews(2), ChainQuery(length));
  }

  auto run_first_batch = [&](memo::Store& store) {
    memo::ScopedEnable on(true, &store);
    for (const auto& [a, b] : slate) {
      bool r = CqContainedIn(a, b);
      benchmark::DoNotOptimize(r);
    }
    for (const auto& [views, query] : items) {
      auto d = DecideUnrestrictedDeterminacy(views, query);
      benchmark::DoNotOptimize(d);
    }
  };

  // Yesterday's process: compute once with the memo on, snapshot the store.
  memo::Store yesterday(4096);
  run_first_batch(yesterday);
  memo::SnapshotIoStats image_stats;
  std::string image = memo::SerializeSnapshot(yesterday, &image_stats);

  // Cold boot: an empty store pays full compute for its first results.
  double cold_seconds = SecondsPerRun([&] {
    memo::Store store(4096);
    run_first_batch(store);
  });

  // Warm boot: restore the image, then serve the same first batch. The
  // load is inside the timed region — it is the price of booting warm.
  double load_seconds = 0;
  std::uint64_t restored = 0;
  std::uint64_t first_batch_hits = 0;
  double warm_seconds = SecondsPerRun([&] {
    memo::Store store(4096);
    memo::SnapshotIoStats rstats = memo::DeserializeSnapshot(image, store);
    restored = rstats.entries;
    memo::StatsSnapshot before = store.Stats();
    run_first_batch(store);
    first_batch_hits = store.Stats().Delta(before).hits;
  });
  load_seconds = SecondsPerRun([&] {
    memo::Store store(4096);
    auto rstats = memo::DeserializeSnapshot(image, store);
    benchmark::DoNotOptimize(rstats.entries);
  });

  for (auto _ : state) {
    memo::Store store(4096);
    memo::SnapshotIoStats rstats = memo::DeserializeSnapshot(image, store);
    benchmark::DoNotOptimize(rstats.entries);
    run_first_batch(store);
  }

  state.counters["warm_boot_speedup"] =
      warm_seconds > 0 ? cold_seconds / warm_seconds : 0.0;
  state.counters["snapshot_entries"] = static_cast<double>(restored);
  state.counters["snapshot_bytes"] = static_cast<double>(image.size());
  state.counters["snapshot_load_ms"] = load_seconds * 1e3;
  state.counters["first_batch_hits"] = static_cast<double>(first_batch_hits);
}
BENCHMARK(BM_MemoSnapshotWarmBoot)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace vqdr

VQDR_BENCH_MAIN("memo");
