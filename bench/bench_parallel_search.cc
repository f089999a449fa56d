// Parallel search scaling: the sharded determinacy search and monotonicity
// scan at thread counts 1–8 against the serial baseline. Each variant
// reports a `speedup_vs_serial` counter (serial wall time measured once per
// workload divided by the variant's mean iteration time), so the emitted
// BENCH_parallel_search.json carries the scaling curve wherever it runs.
// The verdicts are scheduling-independent, so every variant computes the
// same answer — only the wall clock moves.

#include <benchmark/benchmark.h>

#include <chrono>
#include <functional>

#include "bench_json.h"

#include "core/finite_search.h"
#include "gen/workloads.h"

namespace vqdr {
namespace {

// The no-counterexample workload forces full sweeps (512 instances at
// domain 3 over {E/2}): parallel speedups only show on work that cannot
// early-exit.
struct SearchWorkload {
  Schema base{{"E", 2}};
  ViewSet views;
  Query q{Query::FromCq(ConjunctiveQuery{"Q", {}})};
  EnumerationOptions options;
};

SearchWorkload FullSweepWorkload() {
  SearchWorkload w;
  w.views = PathViews(2);
  w.q = Query::FromCq(ChainQuery(3));
  w.options.domain_size = 3;
  return w;
}

double SecondsPerRun(const std::function<void()>& run) {
  auto start = std::chrono::steady_clock::now();
  run();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

void BM_ParallelDeterminacySearch(benchmark::State& state) {
  SearchWorkload w = FullSweepWorkload();
  EnumerationOptions serial = w.options;
  serial.threads = 1;
  double serial_seconds = SecondsPerRun([&] {
    auto r = SearchDeterminacyCounterexample(w.views, w.q, w.base, serial);
    benchmark::DoNotOptimize(r);
  });
  EnumerationOptions options = w.options;
  options.threads = static_cast<int>(state.range(0));
  for (auto _ : state) {
    auto result = SearchDeterminacyCounterexample(w.views, w.q, w.base,
                                                  options);
    benchmark::DoNotOptimize(result);
    state.counters["instances"] =
        static_cast<double>(result.instances_examined);
  }
  state.counters["threads"] = static_cast<double>(options.threads);
  double per_iter =
      state.iterations() > 0
          ? SecondsPerRun([&] {
              auto r = SearchDeterminacyCounterexample(w.views, w.q, w.base,
                                                       options);
              benchmark::DoNotOptimize(r);
            })
          : serial_seconds;
  state.counters["speedup_vs_serial"] =
      per_iter > 0 ? serial_seconds / per_iter : 0.0;
}
BENCHMARK(BM_ParallelDeterminacySearch)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

void BM_ParallelMonotonicitySearch(benchmark::State& state) {
  SearchWorkload w = FullSweepWorkload();
  EnumerationOptions serial = w.options;
  serial.threads = 1;
  double serial_seconds = SecondsPerRun([&] {
    auto r = SearchMonotonicityViolation(w.views, w.q, w.base, serial);
    benchmark::DoNotOptimize(r);
  });
  EnumerationOptions options = w.options;
  options.threads = static_cast<int>(state.range(0));
  for (auto _ : state) {
    auto result = SearchMonotonicityViolation(w.views, w.q, w.base, options);
    benchmark::DoNotOptimize(result);
  }
  state.counters["threads"] = static_cast<double>(options.threads);
  double per_iter = SecondsPerRun([&] {
    auto r = SearchMonotonicityViolation(w.views, w.q, w.base, options);
    benchmark::DoNotOptimize(r);
  });
  state.counters["speedup_vs_serial"] =
      per_iter > 0 ? serial_seconds / per_iter : 0.0;
}
BENCHMARK(BM_ParallelMonotonicitySearch)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace vqdr

VQDR_BENCH_MAIN("parallel_search");
