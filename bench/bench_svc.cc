// Service-layer request latency: the full vqdr-serve path (parse → admit →
// engine on the calling thread → serialize) through Service::HandleLine,
// measured in-process so the socket transport is out of the picture. The
// headline counter `overhead_vs_direct` on the determinacy benchmark is
// served wall time over a direct engine call on the same inputs through the
// same result builders — the price of parsing, admission control, budget
// wiring, op identity, and serialization.
// The Service constructor turns the process memo switch on; the engine
// benchmarks turn it back off for their scope (memo::ScopedEnable) so both
// sides pay the real engine cost and the ratio is apples-to-apples. The
// rejection benchmarks bound the fast-path latency of backpressure: an
// overloaded client learns its fate in microseconds, not after queueing.

#include <benchmark/benchmark.h>

#include <chrono>
#include <functional>
#include <string>

#include "bench_json.h"

#include "core/determinacy.h"
#include "guard/budget.h"
#include "memo/memo.h"
#include "svc/proto.h"
#include "svc/service.h"

namespace vqdr::svc {
namespace {

constexpr const char* kDeterminacyLine =
    "{\"op\":\"determinacy\",\"schema\":\"E/2\","
    "\"views\":[\"V(x,z) :- E(x,y), E(y,z)\"],"
    "\"query\":\"Q(x,z) :- E(x,y), E(y,z)\"}";

constexpr const char* kContainmentLine =
    "{\"op\":\"containment\","
    "\"q1\":\"Q(x,z) :- E(x,y), E(y,z), E(z,w)\","
    "\"q2\":\"Q(x,z) :- E(x,y), E(y,z)\"}";

double SecondsPerRun(const std::function<void()>& run) {
  auto start = std::chrono::steady_clock::now();
  run();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

void BM_SvcParseRequest(benchmark::State& state) {
  for (auto _ : state) {
    StatusOr<Request> req = ParseRequest(kDeterminacyLine);
    benchmark::DoNotOptimize(req);
  }
}
BENCHMARK(BM_SvcParseRequest)->Unit(benchmark::kMicrosecond);

void BM_SvcHandleHealth(benchmark::State& state) {
  // Inline control op: the dispatch floor with no admission.
  Service service;
  for (auto _ : state) {
    std::string r = service.HandleLine("{\"op\":\"health\"}");
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_SvcHandleHealth)->Unit(benchmark::kMicrosecond);

void BM_SvcHandleDeterminacy(benchmark::State& state) {
  Service service;
  memo::ScopedEnable off(false);

  // Direct engine reference on the same inputs through the same builders.
  Scenario sc;
  Status built = BuildScenario(
      "E/2", {"V(x,z) :- E(x,y), E(y,z)"}, "Q(x,z) :- E(x,y), E(y,z)", &sc);
  if (!built.ok()) {
    state.SkipWithError("scenario build failed");
    return;
  }
  // Warm both paths before calibrating — the first calls pay one-time
  // allocator and thread-local costs that would skew whichever side runs
  // first.
  constexpr int kCalibrationRuns = 50;
  auto direct_run = [&] {
    for (int i = 0; i < kCalibrationRuns; ++i) {
      guard::Budget budget;
      UnrestrictedDeterminacyResult r =
          DecideUnrestrictedDeterminacy(sc.views, *sc.query, &budget);
      benchmark::DoNotOptimize(r);
    }
  };
  direct_run();
  for (int i = 0; i < kCalibrationRuns; ++i) {
    std::string r = service.HandleLine(kDeterminacyLine);
    benchmark::DoNotOptimize(r);
  }
  double direct_seconds = SecondsPerRun(direct_run);

  for (auto _ : state) {
    std::string r = service.HandleLine(kDeterminacyLine);
    benchmark::DoNotOptimize(r);
  }

  double served_seconds = SecondsPerRun([&] {
    for (int i = 0; i < kCalibrationRuns; ++i) {
      std::string r = service.HandleLine(kDeterminacyLine);
      benchmark::DoNotOptimize(r);
    }
  });
  state.counters["overhead_vs_direct"] =
      direct_seconds > 0 ? served_seconds / direct_seconds : 0.0;
}
BENCHMARK(BM_SvcHandleDeterminacy)->Unit(benchmark::kMicrosecond);

void BM_SvcHandleContainment(benchmark::State& state) {
  Service service;
  memo::ScopedEnable off(false);
  for (auto _ : state) {
    std::string r = service.HandleLine(kContainmentLine);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_SvcHandleContainment)->Unit(benchmark::kMicrosecond);

void BM_SvcHandleBatch(benchmark::State& state) {
  // One envelope, n determinacy items: amortizes admission across items.
  int n = static_cast<int>(state.range(0));
  std::string line =
      "{\"op\":\"batch\",\"schema\":\"E/2\",\"items\":[";
  for (int i = 0; i < n; ++i) {
    if (i > 0) line.push_back(',');
    line +=
        "{\"views\":[\"V(x,z) :- E(x,y), E(y,z)\"],"
        "\"query\":\"Q(x,z) :- E(x,y), E(y,z)\"}";
  }
  line += "]}";
  Service service;
  memo::ScopedEnable off(false);
  for (auto _ : state) {
    std::string r = service.HandleLine(line);
    benchmark::DoNotOptimize(r);
  }
  state.counters["items"] = static_cast<double>(n);
}
BENCHMARK(BM_SvcHandleBatch)->Arg(1)->Arg(4)->Arg(16)
    ->Unit(benchmark::kMicrosecond);

void BM_SvcOverloadRejection(benchmark::State& state) {
  // queue_limit 0: every engine request takes the structured-rejection fast
  // path. This is the latency a client sees under saturation.
  ServiceOptions options;
  options.queue_limit = 0;
  Service service(options);
  for (auto _ : state) {
    std::string r = service.HandleLine(kDeterminacyLine);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_SvcOverloadRejection)->Unit(benchmark::kMicrosecond);

void BM_SvcBadRequestRejection(benchmark::State& state) {
  // Malformed frame: parse failure to structured bad_request, no admission.
  Service service;
  for (auto _ : state) {
    std::string r = service.HandleLine("{\"op\":");
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_SvcBadRequestRejection)->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace vqdr::svc

VQDR_BENCH_MAIN("svc");
