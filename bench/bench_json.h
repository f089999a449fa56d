#ifndef VQDR_BENCH_BENCH_JSON_H_
#define VQDR_BENCH_BENCH_JSON_H_

// Shared main() for the bench binaries: runs Google Benchmark with the
// normal console output AND writes a machine-readable BENCH_<name>.json
// next to the working directory (override the directory with
// VQDR_BENCH_OUT_DIR). The file carries, per benchmark, the adjusted
// real/cpu time and user counters, plus total wall time and the obs
// counter/histogram activity of the whole run — the data the perf
// trajectory (EXPERIMENTS.md) tracks across PRs.
//
// Usage, replacing BENCHMARK_MAIN():
//
//   VQDR_BENCH_MAIN("chase");   // writes BENCH_chase.json
//
// JSON shape:
//   {"bench":"chase","wall_time_s":1.23,
//    "benchmarks":[{"name":"BM_X/4","iterations":100,"real_time":12.5,
//                   "cpu_time":12.4,"time_unit":"us","counters":{...}}],
//    "obs":{"counters":{...},"histograms":{...}}}

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "obs/metrics.h"

namespace vqdr::benchjson {

struct RunRecord {
  std::string name;
  std::int64_t iterations = 0;
  double real_time = 0;
  double cpu_time = 0;
  std::string time_unit;
  std::map<std::string, double> counters;
};

// Console output as usual, capturing on the side each per-iteration run and
// the mean and median aggregates of a repeated one, under the names Google
// Benchmark gives them (BM_X/4_mean, BM_X/4_median). The stddev and cv
// aggregates stay out: their "time" is a spread, not a duration.
class CapturingReporter : public benchmark::ConsoleReporter {
 public:
  std::vector<RunRecord> records;

  static bool Captured(const Run& run) {
    if (run.error_occurred) return false;
    return run.run_type == Run::RT_Iteration ||
           run.aggregate_name == "mean" || run.aggregate_name == "median";
  }

  void ReportRuns(const std::vector<Run>& report) override {
    for (const Run& run : report) {
      if (!Captured(run)) continue;
      RunRecord rec;
      rec.name = run.benchmark_name();
      rec.iterations = static_cast<std::int64_t>(run.iterations);
      rec.real_time = run.GetAdjustedRealTime();
      rec.cpu_time = run.GetAdjustedCPUTime();
      rec.time_unit = benchmark::GetTimeUnitString(run.time_unit);
      for (const auto& [name, counter] : run.counters) {
        rec.counters[name] = counter.value;
      }
      records.push_back(std::move(rec));
    }
    benchmark::ConsoleReporter::ReportRuns(report);
  }
};

inline void AppendDouble(double v, std::string* out) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  *out += buf;
}

inline std::string BuildReportJson(const char* bench_name, double wall_time_s,
                                   const std::vector<RunRecord>& records,
                                   const obs::MetricsSnapshot& delta) {
  std::string out = "{\"bench\":";
  obs::internal::AppendJsonString(bench_name, &out);
  out += ",\"wall_time_s\":";
  AppendDouble(wall_time_s, &out);
  out += ",\"benchmarks\":[";
  bool first = true;
  for (const RunRecord& rec : records) {
    if (!first) out.push_back(',');
    first = false;
    out += "{\"name\":";
    obs::internal::AppendJsonString(rec.name, &out);
    out += ",\"iterations\":";
    out += std::to_string(rec.iterations);
    out += ",\"real_time\":";
    AppendDouble(rec.real_time, &out);
    out += ",\"cpu_time\":";
    AppendDouble(rec.cpu_time, &out);
    out += ",\"time_unit\":";
    obs::internal::AppendJsonString(rec.time_unit, &out);
    out += ",\"counters\":{";
    bool first_counter = true;
    for (const auto& [name, value] : rec.counters) {
      if (!first_counter) out.push_back(',');
      first_counter = false;
      obs::internal::AppendJsonString(name, &out);
      out.push_back(':');
      AppendDouble(value, &out);
    }
    out += "}}";
  }
  out += "],\"obs\":";
  out += delta.ToJson();
  out += "}\n";
  return out;
}

inline int RunWithJsonReport(const char* bench_name, int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;

  obs::MetricsSnapshot before = obs::SnapshotMetrics();
  auto start = std::chrono::steady_clock::now();
  CapturingReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  double wall_time_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  obs::MetricsSnapshot delta = obs::SnapshotDelta(before);

  std::string path = std::string("BENCH_") + bench_name + ".json";
  if (const char* dir = std::getenv("VQDR_BENCH_OUT_DIR")) {
    path = std::string(dir) + "/" + path;
  }
  std::ofstream file(path, std::ios::out | std::ios::trunc);
  if (!file) {
    std::cerr << "bench_json: cannot write " << path << "\n";
    benchmark::Shutdown();
    return 1;
  }
  file << BuildReportJson(bench_name, wall_time_s, reporter.records, delta);
  file.close();
  std::cout << "wrote " << path << "\n";

  benchmark::Shutdown();
  return 0;
}

}  // namespace vqdr::benchjson

#define VQDR_BENCH_MAIN(name)                                             \
  int main(int argc, char** argv) {                                       \
    return ::vqdr::benchjson::RunWithJsonReport(name, argc, argv);        \
  }

#endif  // VQDR_BENCH_BENCH_JSON_H_
