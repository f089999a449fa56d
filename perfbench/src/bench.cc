#include "bench.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "obs/metrics.h"
#include "obs/profile.h"

namespace perfbench {

double Quantile(std::vector<double>& v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  std::size_t rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double Median(std::vector<double> v) { return Quantile(v, 0.5); }

void TimedPhase::EndChunk(std::int64_t chunk_wall_ns, std::uint64_t chunk_ops) {
  wall_ns += chunk_wall_ns;
  ops += chunk_ops;
  block_wall_ns_ += chunk_wall_ns;
  block_ops_ += chunk_ops;
  // p99 needs at least ten samples beyond it; fifty keep it steady.
  if (block_wall_ns_ < 500000000 || samples_.size() < 5000) return;
  block_throughput.push_back(static_cast<double>(block_ops_) /
                             (static_cast<double>(block_wall_ns_) * 1e-9));
  block_p50_ns.push_back(Quantile(samples_, 0.50));
  block_p99_ns.push_back(Quantile(samples_, 0.99));
  samples_.clear();
  block_wall_ns_ = 0;
  block_ops_ = 0;
}

void AddEndToEnd(const TimedPhase& phase, std::vector<double> setup_s,
                 double peak_rss_mb, Outcome* out) {
  if (phase.block_throughput.empty()) {
    out->Fail("timed phase shorter than one block");
    return;
  }
  std::fprintf(stderr, "timed: %llu ops in %zu blocks, %.3f s; ops/s by block:",
               static_cast<unsigned long long>(phase.ops),
               phase.block_throughput.size(),
               static_cast<double>(phase.wall_ns) * 1e-9);
  for (double t : phase.block_throughput) std::fprintf(stderr, " %.0f", t);
  std::fprintf(stderr, "\nblock p50 us:");
  for (double t : phase.block_p50_ns) std::fprintf(stderr, " %.1f", t / 1e3);
  std::fprintf(stderr, "\nblock p99 us:");
  for (double t : phase.block_p99_ns) std::fprintf(stderr, " %.1f", t / 1e3);
  std::fprintf(stderr, "\n");
  // Throughput is every timed operation over all timed wall time, and the
  // latencies are the means of the block p50s and p99s. The host switches
  // between a slow and a fast speed every few seconds (a fixed loop ran at
  // 41k and at 78k iterations per ms within one minute); a median over
  // blocks jumps to whichever speed held more than half the run, while a
  // mean moves in proportion to the share of time at each.
  const double blocks = static_cast<double>(phase.block_p50_ns.size());
  double mean_p50 = 0, mean_p99 = 0;
  for (std::size_t i = 0; i < phase.block_p50_ns.size(); ++i) {
    mean_p50 += phase.block_p50_ns[i] / blocks;
    mean_p99 += phase.block_p99_ns[i] / blocks;
  }
  const double wall_s = static_cast<double>(phase.wall_ns) * 1e-9;
  out->metrics["throughput_ops_s"] = {static_cast<double>(phase.ops) / wall_s,
                                      "ops/s"};
  out->metrics["latency_p50_us"] = {mean_p50 / 1e3, "us"};
  out->metrics["latency_p99_us"] = {mean_p99 / 1e3, "us"};
  out->metrics["setup_s"] = {Median(std::move(setup_s)), "s"};
  out->metrics["peak_rss_mb"] = {peak_rss_mb, "MB"};
}

double PeakRssMb(int pid) {
  std::ifstream in(pid == 0 ? std::string("/proc/self/status")
                            : "/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kb = 0;
      fields >> kb;
      return kb / 1024.0;
    }
  }
  return 0;
}

int SpanLog::Begin(const char* name, std::uint64_t op) {
  int parent = open_.empty() ? -1 : open_.back();
  Span s;
  s.name = name;
  s.op = op;
  s.parent = parent;
  s.depth = static_cast<int>(open_.size());
  spans_.push_back(s);
  int index = static_cast<int>(spans_.size()) - 1;
  open_.push_back(index);
  spans_[index].start_ns = NowNs();
  return index;
}

void SpanLog::End(int index) {
  spans_[index].end_ns = NowNs();
  open_.pop_back();
}

int SpanLog::Add(const char* name, std::uint64_t op, std::int64_t start_ns,
                 std::int64_t end_ns, int parent) {
  Span s;
  s.name = name;
  s.op = op;
  s.parent = parent;
  s.depth = parent < 0 ? 0 : spans_[parent].depth + 1;
  s.start_ns = start_ns;
  s.end_ns = end_ns;
  spans_.push_back(s);
  return static_cast<int>(spans_.size()) - 1;
}

std::map<std::string, SpanStats> SummarizeSpans(
    const std::vector<const SpanLog*>& logs) {
  std::map<std::string, SpanStats> out;
  for (const SpanLog* log : logs) {
    for (const Span& s : log->spans()) {
      double dur = static_cast<double>(s.end_ns - s.start_ns) / 1e3;
      SpanStats& st = out[s.name];
      st.dur_us.push_back(dur);
      st.total_us += dur;
    }
  }
  return out;
}

bool WriteTraceJsonl(const std::string& path,
                     const std::vector<const SpanLog*>& logs,
                     std::int64_t epoch_ns, std::string* error) {
  {
    std::ofstream out(path, std::ios::out | std::ios::trunc);
    if (!out) {
      *error = "cannot open " + path;
      return false;
    }
    std::string line;
    for (const SpanLog* log : logs) {
      const std::vector<Span>& spans = log->spans();
      for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span& s = spans[i];
        auto rel_us = [epoch_ns](std::int64_t ns) {
          return std::to_string(std::max<std::int64_t>(0, ns - epoch_ns) / 1000);
        };
        line = "{\"name\":\"";
        line += s.name;
        line += "\",\"start_us\":" + rel_us(s.start_ns);
        line += ",\"dur_us\":" +
                std::to_string(std::max<std::int64_t>(0, s.end_ns - s.start_ns) / 1000);
        line += ",\"tid\":" + std::to_string(log->tid());
        line += ",\"depth\":" + std::to_string(s.depth);
        line += ",\"op\":" + std::to_string(s.op);
        line += ",\"id\":" + std::to_string(i);
        line += ",\"parent\":" + std::to_string(s.parent);
        line += "}\n";
        out << line;
      }
    }
    if (!out.flush()) {
      *error = "write failed: " + path;
      return false;
    }
  }
  std::ifstream in(path);
  std::optional<std::vector<vqdr::obs::TraceEvent>> events =
      vqdr::obs::ParseTraceJsonl(in, error);
  if (!events.has_value()) return false;
  std::size_t expected = 0;
  for (const SpanLog* log : logs) expected += log->spans().size();
  vqdr::obs::Profile profile = vqdr::obs::BuildProfile(*events);
  if (events->size() != expected || profile.span_count != expected) {
    *error = "trace read back " + std::to_string(events->size()) + " of " +
             std::to_string(expected) + " spans";
    return false;
  }
  // The span tree with self times (span time minus its children's).
  std::fprintf(stderr, "%s", vqdr::obs::RenderProfileText(profile).c_str());
  return true;
}

void AddSpanMetric(const std::map<std::string, SpanStats>& stats,
                   const std::string& span, const std::string& metric,
                   double op_total_us, Outcome* out) {
  auto it = stats.find(span);
  double p50 = 0;
  double share = 0;
  if (it != stats.end()) {
    p50 = Median(it->second.dur_us);
    share = op_total_us > 0 ? it->second.total_us / op_total_us : 0;
  }
  out->metrics[metric + ".p50"] = {p50, "us"};
  out->metrics[metric + ".share"] = {share, "ratio"};
}

void WriteTraceSummary(const Args& args, const std::string& workload,
                       std::uint64_t digest, const Outcome& out) {
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(digest));
  std::ofstream file(args.work_dir + "/" + workload + ".summary.json");
  file << "{\"workload\":\"" << workload << "\",\"seed\":" << args.seed
       << ",\"digest\":\"" << hex << "\",\"counts\":{";
  bool first = true;
  char value[64];
  for (const auto& [name, metric] : out.metrics) {
    if (metric.unit != "count" && name != "cq.hom.match_ratio" &&
        name != "determinacy.determined_share") {
      continue;
    }
    std::snprintf(value, sizeof(value), "%.17g", metric.value);
    file << (first ? "" : ",") << "\"" << name << "\":" << value;
    first = false;
  }
  file << "}}\n";
}

const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics() {
  static const std::vector<std::pair<std::string, std::string>> kMetrics = [] {
    std::vector<std::pair<std::string, std::string>> m;
    auto timed = [&m](const std::string& name) {
      m.push_back({name + ".p50", "us"});
      m.push_back({name + ".share", "ratio"});
    };
    // svc / par / memo (serve)
    for (const char* n : {"svc.server_us", "svc.transport_us", "svc.parse_us",
                          "svc.serialize_us", "svc.dispatch_us",
                          "svc.engine_us", "svc.batch_item_us"}) {
      timed(n);
    }
    m.push_back({"svc.server_cpu_us_per_op", "us"});
    m.push_back({"svc.rejected", "count"});
    m.push_back({"memo.hit_ratio", "ratio"});
    m.push_back({"memo.repeat_share", "ratio"});
    m.push_back({"memo.installs_per_op", "count"});
    m.push_back({"memo.evictions_per_op", "count"});
    // cq (decision), views, chase, core (decide)
    timed("cq.canonical_db_us");
    timed("cq.match_us");
    m.push_back({"cq.hom.attempts_per_op", "count"});
    m.push_back({"cq.hom.match_ratio", "ratio"});
    timed("views.apply_us");
    timed("chase.view_inverse_us");
    m.push_back({"chase.facts_added_per_op", "count"});
    m.push_back({"chase.tuples_chased_per_op", "count"});
    timed("rewrite.to_query_us");
    timed("decide.glue_us");
    m.push_back({"determinacy.determined_share", "ratio"});
    // cq (evaluation), fo, datalog (evaluate)
    timed("cq.eval_us");
    timed("rewrite.answer_us");
    m.push_back({"answer_tuples_per_op", "count"});
    timed("fo.eval_us");
    timed("datalog.eval_us");
    m.push_back({"datalog.facts_per_op", "count"});
    // obs
    m.push_back({"trace.overhead", "ratio"});
    return m;
  }();
  return kMetrics;
}

}  // namespace perfbench
