// E-LMSS / E-5.10: the baseline equivalent-rewriting problem of
// Levy–Mendelzon–Sagiv–Srivastava [22] — NP-complete; here solved through
// the canonical-rewriting test plus greedy minimisation. The shape to
// observe: synthesis cost grows with query size and with minimisation.

#include <benchmark/benchmark.h>

#include "bench_json.h"

#include "core/determinacy.h"
#include "core/rewriting.h"
#include "gen/workloads.h"

namespace vqdr {
namespace {

void BM_CqRewritingSynthesis(benchmark::State& state) {
  ViewSet views = PathViews(2);
  ConjunctiveQuery q = ChainQuery(static_cast<int>(state.range(0)));
  bool exists = false;
  for (auto _ : state) {
    CqRewritingResult result = FindCqRewriting(views, q);
    exists = result.exists;
    benchmark::DoNotOptimize(result);
  }
  state.counters["exists"] = exists ? 1 : 0;
}
BENCHMARK(BM_CqRewritingSynthesis)->DenseRange(1, 7)
    ->Unit(benchmark::kMicrosecond);

// Existence test only (no minimisation): the decision core of [22], the
// Theorem 3.7 test FindCqRewriting runs before it minimises.
void BM_CqRewritingDecisionOnly(benchmark::State& state) {
  ViewSet views = PathViews(2);
  ConjunctiveQuery q = ChainQuery(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(DecideUnrestrictedDeterminacy(views, q));
  }
}
BENCHMARK(BM_CqRewritingDecisionOnly)->DenseRange(1, 7)
    ->Unit(benchmark::kMicrosecond);

// UCQ rewriting of a UCQ query ([22] Theorem 3.9 setting): per-disjunct
// canonical rewritings + UCQ containment.
void BM_UcqRewriting(benchmark::State& state) {
  ViewSet views = PathViews(2);
  UnionQuery q;
  for (int len = 1; len <= state.range(0); ++len) {
    q.AddDisjunct(ChainQuery(len, "E", "Q"));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(FindUcqRewriting(views, q));
  }
  state.counters["disjuncts"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_UcqRewriting)->DenseRange(1, 5)->Unit(benchmark::kMicrosecond);

// Expansion of a rewriting: the unfolding used everywhere downstream.
void BM_ExpandRewriting(benchmark::State& state) {
  ViewSet views = PathViews(3);
  // R = P3 ∘ P3 ∘ … (range copies).
  ConjunctiveQuery r("Q", {Term::Var("x0"),
                           Term::Var("x" + std::to_string(state.range(0)))});
  for (int i = 0; i < state.range(0); ++i) {
    r.AddAtom(Atom("P3", {Term::Var("x" + std::to_string(i)),
                          Term::Var("x" + std::to_string(i + 1))}));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(ExpandRewriting(r, views));
  }
  state.counters["view_atoms"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_ExpandRewriting)->DenseRange(1, 8)
    ->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace vqdr

VQDR_BENCH_MAIN("lmss");
