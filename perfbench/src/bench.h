#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

// Shared pieces of the workloads: the clock, latency statistics,
// the span log of the traced run, and the result a workload hands back.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

inline std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Command-line settings of one run.
struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  // Directory (inside the checkout) for sockets and trace files.
  std::string work_dir;
  // Path of the vqdr-serve binary.
  std::string server;
};

// Length of each half of a traced run: an untraced phase, then the traced
// one on the same seed. Five seconds give every per-layer metric thousands
// of spans while keeping the in-memory span log and the JSONL file small.
inline double TracedPhaseSeconds(const Args& args) {
  return args.seconds / 2 < 5.0 ? args.seconds / 2 : 5.0;
}

// Quantile q of `v` (sorted in place), nearest-rank.
double Quantile(std::vector<double>& v, double q);
double Median(std::vector<double> v);

// One metric as printed: value plus unit.
struct Metric {
  double value = 0;
  std::string unit;
};

// What a workload run reports.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  // Diagnostics for the first few failures (printed to stderr).
  std::vector<std::string> failures;
  std::map<std::string, Metric> metrics;

  void Fail(std::string why) {
    ++failed;
    if (failures.size() < 5) failures.push_back(std::move(why));
  }
};

// The timed phase, cut into blocks of at least half a second of timed wall
// time and 5000 operations; the latency metrics are means over the blocks
// (AddEndToEnd). Samples are dropped once their block is summarized, which
// keeps memory flat however fast the machine is.
struct TimedPhase {
  void Record(double latency_ns) { samples_.push_back(latency_ns); }
  // Closes a chunk of `ops` operations that took `wall_ns` of timed time.
  void EndChunk(std::int64_t wall_ns, std::uint64_t ops);

  std::int64_t wall_ns = 0;
  std::uint64_t ops = 0;
  std::vector<double> block_throughput;  // ops/s
  std::vector<double> block_p50_ns;
  std::vector<double> block_p99_ns;

 private:
  std::vector<double> samples_;
  std::int64_t block_wall_ns_ = 0;
  std::uint64_t block_ops_ = 0;
};

// The five end-to-end metrics of a timed phase (and the set-up repeats).
void AddEndToEnd(const TimedPhase& phase, std::vector<double> setup_s,
                 double peak_rss_mb, Outcome* out);

// Peak resident set (VmHWM) of a process, in MiB; 0 when unreadable.
double PeakRssMb(int pid);

// ---- traced run -----------------------------------------------------------

// One span recorded by the benchmark around a call into a layer. Spans of
// one operation share `op`; `parent` indexes the enclosing span in the same
// log (-1 for a root).
struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;
  int depth = 0;
  std::uint64_t op = 0;
};

// An in-memory span log for one thread. Nothing is written until the run
// ends (WriteTraceJsonl).
class SpanLog {
 public:
  explicit SpanLog(std::uint32_t tid) : tid_(tid) {}

  // Opens a span under the innermost open one.
  int Begin(const char* name, std::uint64_t op);
  void End(int index);
  // Records a span measured elsewhere (a client round trip, a server
  // reply's elapsed time, an op-registry entry) under `parent` (-1: root).
  int Add(const char* name, std::uint64_t op, std::int64_t start_ns,
          std::int64_t end_ns, int parent);

  std::uint32_t tid() const { return tid_; }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::uint32_t tid_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

// RAII span.
class Scoped {
 public:
  Scoped(SpanLog* log, const char* name, std::uint64_t op)
      : log_(log), index_(log ? log->Begin(name, op) : -1) {}
  ~Scoped() {
    if (log_ != nullptr) log_->End(index_);
  }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

 private:
  SpanLog* log_;
  int index_;
};

// Per-name span durations.
struct SpanStats {
  std::vector<double> dur_us;
  double total_us = 0;
};
std::map<std::string, SpanStats> SummarizeSpans(
    const std::vector<const SpanLog*>& logs);

// Writes every span as one JSON object per line in the VQDR_TRACE sink
// format (name, start_us, dur_us, tid, depth, op), plus "id" and "parent"
// so the tree is explicit. Timestamps are relative to `epoch_ns`. Then
// reads the file back through obs::ParseTraceJsonl and obs::BuildProfile
// and prints the span tree with self times on stderr; returns false (with
// *error) if the library cannot read it.
bool WriteTraceJsonl(const std::string& path,
                     const std::vector<const SpanLog*>& logs,
                     std::int64_t epoch_ns, std::string* error);

// Adds "<name>.p50" (µs, median span duration) and "<name>.share" (total
// span time over `op_total_us`) for a span name.
void AddSpanMetric(const std::map<std::string, SpanStats>& stats,
                   const std::string& span, const std::string& metric,
                   double op_total_us, Outcome* out);

// Writes <work_dir>/<workload>.summary.json: the seed, the digest of the
// operation sequence, and every count metric of `out`. The determinism test
// compares two of these.
void WriteTraceSummary(const Args& args, const std::string& workload,
                       std::uint64_t digest, const Outcome& out);

// ---- workloads ------------------------------------------------------------

Outcome RunDecide(const Args& args);
Outcome RunEvaluate(const Args& args);
Outcome RunServe(const Args& args);

// Per-layer metric names of every workload, so each traced run prints them
// all (0 where a layer does not run in that workload).
const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics();

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
