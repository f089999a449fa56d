// perfbench_bench: runs one workload of the repository benchmark and
// prints its metrics as one JSON object on the last line of stdout.
//
//   perfbench_bench --workload decide|evaluate|serve --seed N --seconds S
//                    --trace 0|1 --work-dir DIR --server PATH/vqdr-serve
//
// --trace 0 measures the end-to-end metrics with tracing off; --trace 1 is
// the separate traced run that reports the per-layer metrics.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench.h"

namespace {

bool ParseArgs(int argc, char** argv, perfbench::Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string key = argv[i];
    std::string value = argv[i + 1];
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      args->trace = value == "1";
    } else if (key == "--work-dir") {
      args->work_dir = value;
    } else if (key == "--server") {
      args->server = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0 &&
         !args->work_dir.empty();
}

void PrintResult(const perfbench::Args& args, const perfbench::Outcome& out) {
  std::string line = "{\"correct\": ";
  line += out.failed == 0 ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(out.attempted);
  line += ", \"failed\": " + std::to_string(out.failed);
  line += ", \"metrics\": {";
  bool first = true;
  char value[64];
  auto emit = [&](const std::string& name, const perfbench::Metric& m) {
    std::snprintf(value, sizeof(value), "%.17g", m.value);
    line += first ? "" : ", ";
    line += "\"" + name + "\": {\"value\": " + value + ", \"unit\": \"" +
            m.unit + "\"}";
    first = false;
  };
  if (args.trace) {
    for (const auto& [name, unit] : perfbench::PerLayerMetrics()) {
      auto it = out.metrics.find(name);
      emit(name, it != out.metrics.end() ? it->second
                                         : perfbench::Metric{0, unit});
    }
  } else {
    for (const char* name : {"throughput_ops_s", "latency_p50_us",
                             "latency_p99_us", "setup_s", "peak_rss_mb"}) {
      emit(name, out.metrics.at(name));
    }
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload decide|evaluate|serve --seed N "
                 "--seconds S --trace 0|1 --work-dir DIR --server PATH\n",
                 argv[0]);
    return 2;
  }
  perfbench::Outcome out;
  if (args.workload == "decide") {
    out = perfbench::RunDecide(args);
  } else if (args.workload == "evaluate") {
    out = perfbench::RunEvaluate(args);
  } else if (args.workload == "serve") {
    out = perfbench::RunServe(args);
  } else {
    std::fprintf(stderr, "unknown workload: %s\n", args.workload.c_str());
    return 2;
  }
  for (const std::string& f : out.failures) {
    std::fprintf(stderr, "%s: failed: %s\n", args.workload.c_str(), f.c_str());
  }
  if (!args.trace && out.metrics.count("setup_s") == 0) return 1;
  PrintResult(args, out);
  return 0;
}
