// Substrate benchmark: CQ/UCQ containment (Chandra–Merlin / Sagiv–
// Yannakakis) and core minimisation — the NP-complete engine everything
// else calls into. The shape to observe: chain-into-chain containment is
// polynomial in practice (pruned backtracking), disequality patterns pay
// the Bell-number factor, minimisation is quadratic in atoms times a
// containment call.

#include <benchmark/benchmark.h>

#include "bench_json.h"

#include "cq/containment.h"
#include "cq/matcher.h"
#include "cq/minimize.h"
#include "gen/workloads.h"

namespace vqdr {
namespace {

void BM_CqContainmentChains(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  ConjunctiveQuery longer = ChainQuery(2 * n);
  ConjunctiveQuery shorter = ChainQuery(n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(CqContainedIn(longer, shorter));
  }
  state.counters["atoms"] = static_cast<double>(2 * n);
}
BENCHMARK(BM_CqContainmentChains)->DenseRange(1, 6)
    ->Unit(benchmark::kMicrosecond);

void BM_CqContainmentCycles(benchmark::State& state) {
  // Cycle-into-cycle: divisibility structure, harder hom search.
  int n = static_cast<int>(state.range(0));
  ConjunctiveQuery big = CycleQuery(2 * n);
  ConjunctiveQuery small = CycleQuery(n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(CqContainedIn(big, small));
  }
}
BENCHMARK(BM_CqContainmentCycles)->DenseRange(2, 5)
    ->Unit(benchmark::kMicrosecond);

void BM_CqContainmentWithDisequality(benchmark::State& state) {
  // The Bell-number blowup: q1 pure with k variables, q2 with one ≠.
  int n = static_cast<int>(state.range(0));
  ConjunctiveQuery q1 = ChainQuery(n);
  ConjunctiveQuery q2 = ChainQuery(n);
  q2.AddDisequality(Term::Var("x0"), Term::Var("x" + std::to_string(n)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(CqContainedIn(q1, q2));
  }
  state.counters["vars"] = static_cast<double>(n + 1);
}
BENCHMARK(BM_CqContainmentWithDisequality)->DenseRange(1, 5)
    ->Unit(benchmark::kMicrosecond);

void BM_MinimizeStar(benchmark::State& state) {
  // All arms of a star are redundant: n-1 successful removals.
  ConjunctiveQuery q = StarQuery(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(MinimizeCq(q));
  }
}
BENCHMARK(BM_MinimizeStar)->DenseRange(2, 8)->Unit(benchmark::kMicrosecond);

void BM_MinimizeIrreducibleChain(benchmark::State& state) {
  // Nothing removable: n failed removal attempts.
  ConjunctiveQuery q = ChainQuery(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(MinimizeCq(q));
  }
}
BENCHMARK(BM_MinimizeIrreducibleChain)->DenseRange(2, 8)
    ->Unit(benchmark::kMicrosecond);

void BM_UcqContainment(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  UnionQuery left, right;
  for (int i = 1; i <= n; ++i) {
    left.AddDisjunct(ChainQuery(2 * i, "E", "Q"));
    right.AddDisjunct(ChainQuery(i, "E", "Q"));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(UcqContainedIn(left, right));
  }
  state.counters["disjuncts"] = static_cast<double>(n);
}
BENCHMARK(BM_UcqContainment)->DenseRange(1, 5)
    ->Unit(benchmark::kMicrosecond);

// --- Homomorphism-search shapes (DESIGN.md §12) ---
//
// Hom-dominated shapes for the indexed-join engine. Memoization is pinned
// off: the subject here is the homomorphism search, not the verdict cache.

void BM_HomChainContainment(benchmark::State& state) {
  // Chain-2n vs chain-n: the pattern check walks a long frozen path with
  // the head pre-bound — a deep, failure-terminated join.
  int n = static_cast<int>(state.range(0));
  CqContainmentOptions options;
  options.memo.use = memo::Use::kOff;
  ConjunctiveQuery longer = ChainQuery(2 * n);
  ConjunctiveQuery shorter = ChainQuery(n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(CqContainedIn(longer, shorter, options));
    benchmark::DoNotOptimize(CqContainedIn(shorter, longer, options));
  }
  state.counters["atoms"] = static_cast<double>(2 * n);
}
BENCHMARK(BM_HomChainContainment)->Arg(16)->Arg(24)->Arg(32)
    ->Unit(benchmark::kMicrosecond);

void BM_HomPatternOverRandomGraph(benchmark::State& state) {
  // Chain-pattern evaluation over a dense random graph: the success-heavy
  // case (every hom is enumerated), measuring raw candidate generation.
  int k = static_cast<int>(state.range(0));
  ConjunctiveQuery q = ChainQuery(k);
  Instance g = RandomGraph(40, 240, /*seed=*/7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(EvaluateCq(q, g));
  }
  state.counters["edges"] =
      static_cast<double>(g.Get("E").tuples().size());
}
BENCHMARK(BM_HomPatternOverRandomGraph)->DenseRange(2, 4)
    ->Unit(benchmark::kMicrosecond);

void BM_HomOddCycleOverBipartite(benchmark::State& state) {
  // Failure-heavy: an odd cycle has no hom into a bipartite graph, so the
  // whole search tree is refutation — exactly where forward checking and
  // backjumping earn their keep.
  int k = static_cast<int>(state.range(0));  // odd cycle length
  ConjunctiveQuery q = CycleQuery(k);
  Instance g(Schema{{"E", 2}});
  for (int i = 1; i <= 10; ++i) {
    for (int j = 1; j <= 10; ++j) {
      if ((i * 7 + j * 3) % 4 == 0) {
        g.AddFact("E", {Value(i), Value(10 + j)});
      }
      if ((i * 5 + j) % 4 == 0) {
        g.AddFact("E", {Value(10 + j), Value(i)});
      }
    }
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(EvaluateCq(q, g));
  }
}
BENCHMARK(BM_HomOddCycleOverBipartite)->Arg(5)->Arg(7)
    ->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace vqdr

VQDR_BENCH_MAIN("containment");
