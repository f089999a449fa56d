// Guard-seam overhead benchmark: the governance checkpoints must be free
// when no budget is attached and near-free with an unlimited one. Each hot
// path runs two ways — ungoverned (nullptr budget: one null test per
// checkpoint) and with an unlimited Budget (a relaxed fetch_add per
// checkpoint, a clock read every kClockStride steps). The overhead budget,
// like the obs seam's, is <= 2%: compare the `*UnlimitedBudget` rows of
// BENCH_guard_overhead.json against the `*Unbudgeted` ones.
//
// Workloads mirror the substrate benches: the finite counterexample search
// (tightest checkpoint loop — one per instance plus one per matcher node),
// the CQ(≠) identification-pattern sweep, and the chase chain (checkpoint
// per chased tuple, atom accounting per materialized fact).

#include <benchmark/benchmark.h>

#include "bench_json.h"

#include "chase/chain.h"
#include "core/finite_search.h"
#include "cq/containment.h"
#include "gen/workloads.h"
#include "guard/budget.h"

namespace vqdr {
namespace {

// --- finite counterexample search ------------------------------------------

void BM_SearchUnbudgeted(benchmark::State& state) {
  ViewSet views = PathViews(2);
  Query q = Query::FromCq(ChainQuery(3));
  Schema schema{{"E", 2}};
  EnumerationOptions options;
  options.domain_size = static_cast<int>(state.range(0));
  options.threads = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        SearchDeterminacyCounterexample(views, q, schema, options));
  }
}
BENCHMARK(BM_SearchUnbudgeted)->DenseRange(2, 3)
    ->Unit(benchmark::kMicrosecond);

void BM_SearchUnlimitedBudget(benchmark::State& state) {
  ViewSet views = PathViews(2);
  Query q = Query::FromCq(ChainQuery(3));
  Schema schema{{"E", 2}};
  for (auto _ : state) {
    guard::Budget budget;  // unlimited: every checkpoint taken, none trips
    EnumerationOptions options;
    options.domain_size = static_cast<int>(state.range(0));
    options.threads = 1;
    options.budget = &budget;
    benchmark::DoNotOptimize(
        SearchDeterminacyCounterexample(views, q, schema, options));
  }
}
BENCHMARK(BM_SearchUnlimitedBudget)->DenseRange(2, 3)
    ->Unit(benchmark::kMicrosecond);

// --- CQ(!=) containment sweep ----------------------------------------------

ConjunctiveQuery DisequalityChain(int n) {
  ConjunctiveQuery q = ChainQuery(n);
  q.AddDisequality(Term::Var("x0"), Term::Var("x" + std::to_string(n)));
  return q;
}

void BM_ContainmentUnbudgeted(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  ConjunctiveQuery q1 = ChainQuery(n);
  ConjunctiveQuery q2 = DisequalityChain(n);
  CqContainmentOptions options;
  for (auto _ : state) {
    benchmark::DoNotOptimize(CqContainedInGoverned(q1, q2, options));
  }
}
BENCHMARK(BM_ContainmentUnbudgeted)->DenseRange(3, 5)
    ->Unit(benchmark::kMicrosecond);

void BM_ContainmentUnlimitedBudget(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  ConjunctiveQuery q1 = ChainQuery(n);
  ConjunctiveQuery q2 = DisequalityChain(n);
  for (auto _ : state) {
    guard::Budget budget;
    CqContainmentOptions options;
    options.budget = &budget;
    benchmark::DoNotOptimize(CqContainedInGoverned(q1, q2, options));
  }
}
BENCHMARK(BM_ContainmentUnlimitedBudget)->DenseRange(3, 5)
    ->Unit(benchmark::kMicrosecond);

// --- chase chain -----------------------------------------------------------

void BM_ChaseChainUnbudgeted(benchmark::State& state) {
  ViewSet views = PathViews(3);
  ConjunctiveQuery q = ChainQuery(4);
  int levels = static_cast<int>(state.range(0));
  for (auto _ : state) {
    ValueFactory factory;
    ChaseChainOptions options;
    options.levels = levels;
    benchmark::DoNotOptimize(BuildChaseChain(views, q, options, factory));
  }
}
BENCHMARK(BM_ChaseChainUnbudgeted)->DenseRange(1, 3)
    ->Unit(benchmark::kMicrosecond);

void BM_ChaseChainUnlimitedBudget(benchmark::State& state) {
  ViewSet views = PathViews(3);
  ConjunctiveQuery q = ChainQuery(4);
  int levels = static_cast<int>(state.range(0));
  for (auto _ : state) {
    guard::Budget budget;
    ValueFactory factory;
    ChaseChainOptions options;
    options.levels = levels;
    options.budget = &budget;
    benchmark::DoNotOptimize(BuildChaseChain(views, q, options, factory));
  }
}
BENCHMARK(BM_ChaseChainUnlimitedBudget)->DenseRange(1, 3)
    ->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace vqdr

VQDR_BENCH_MAIN("guard_overhead");
