// E-4.sat / E-5.8 / E-5.12: bounded finite-determinacy refutation — the
// direct grouped search versus the Section-4 twin-schema FO encoding, on
// the paper's counterexample families. The shape to observe: both methods
// find the same refutations; the twin encoding pays FO-evaluation overhead
// per enumerated instance, the direct search pays per-group bookkeeping.

#include <benchmark/benchmark.h>

#include "bench_json.h"

#include "core/finite_search.h"
#include "core/twin_encoding.h"
#include "cq/parser.h"
#include "reductions/counterexamples.h"

namespace vqdr {
namespace {

void BM_DirectSearchProp58(benchmark::State& state) {
  NamePool pool;
  NonMonotonicityFamily family = Prop58Family(pool);
  EnumerationOptions options;
  options.domain_size = static_cast<int>(state.range(0));
  for (auto _ : state) {
    auto result = SearchDeterminacyCounterexample(family.views, family.query,
                                                  family.base, options);
    benchmark::DoNotOptimize(result);
    state.counters["instances"] =
        static_cast<double>(result.instances_examined);
  }
}
BENCHMARK(BM_DirectSearchProp58)->DenseRange(1, 3)
    ->Unit(benchmark::kMillisecond);

void BM_DirectSearchProjection(benchmark::State& state) {
  // The refutable projection case: search stops at the first hit.
  NamePool pool;
  Schema base{{"E", 2}};
  ViewSet views;
  views.Add("V", Query::FromCq(ParseCq("V(x) :- E(x, y)", pool).value()));
  Query q = Query::FromCq(ParseCq("Q(x, y) :- E(x, y)", pool).value());
  EnumerationOptions options;
  options.domain_size = static_cast<int>(state.range(0));
  for (auto _ : state) {
    auto result = SearchDeterminacyCounterexample(views, q, base, options);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_DirectSearchProjection)->DenseRange(2, 3)
    ->Unit(benchmark::kMicrosecond);

void BM_TwinSearchProjection(benchmark::State& state) {
  NamePool pool;
  Schema base{{"E", 2}};
  ViewSet views;
  views.Add("V", Query::FromCq(ParseCq("V(x) :- E(x, y)", pool).value()));
  Query q = Query::FromCq(ParseCq("Q(x, y) :- E(x, y)", pool).value());
  TwinEncoding encoding = BuildTwinEncoding(views, q, base);
  EnumerationOptions options;
  options.domain_size = static_cast<int>(state.range(0));
  for (auto _ : state) {
    auto result = BoundedTwinSearch(encoding, base, options);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_TwinSearchProjection)->DenseRange(2, 2)
    ->Unit(benchmark::kMillisecond);

void BM_MonotonicitySearchProp512(benchmark::State& state) {
  NamePool pool;
  NonMonotonicityFamily family = Prop512Family(pool);
  EnumerationOptions options;
  options.domain_size = static_cast<int>(state.range(0));
  for (auto _ : state) {
    auto result = SearchMonotonicityViolation(family.views, family.query,
                                              family.base, options);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_MonotonicitySearchProp512)->DenseRange(2, 2)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace vqdr

VQDR_BENCH_MAIN("counterexample_search");
