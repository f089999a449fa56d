#include "obs/metrics.h"

#include <cstdio>
#include <memory>
#include <mutex>
#include <vector>

namespace vqdr::obs {

namespace {

// The registry maps names to heap-allocated metrics so references handed out
// by GetCounter/GetHistogram stay stable forever. Lookups take the mutex;
// the macro layer caches the reference per call site, so the mutex is off
// the hot path after the first hit.
struct Registry {
  std::mutex mu;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms;
  /// Dense per-op attribution ids, assigned in registration order. Index i
  /// names the counter behind OpMetricCells::cells[i].
  std::map<std::string, std::uint32_t, std::less<>> counter_ids;
  std::vector<std::string> counter_names_by_id;

  static Registry& Get() {
    static Registry* r = new Registry;  // leaked: outlives static dtors
    return *r;
  }
};

void AppendUint(std::uint64_t v, std::string* out) {
  out->append(std::to_string(v));
}

}  // namespace

void Histogram::Record(std::uint64_t v) {
  sum_.fetch_add(v, std::memory_order_relaxed);
  buckets_[HistogramBucketIndex(v)].fetch_add(1, std::memory_order_relaxed);
  std::uint64_t cur = min_.load(std::memory_order_relaxed);
  while (v < cur &&
         !min_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
  cur = max_.load(std::memory_order_relaxed);
  while (v > cur &&
         !max_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
  // Publish last: a reader that acquires a count of n sees the sum, bucket,
  // min and max updates of those n records, so it never reads min > max.
  count_.fetch_add(1, std::memory_order_release);
}

void Histogram::Reset() {
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
  min_.store(UINT64_MAX, std::memory_order_relaxed);
  max_.store(0, std::memory_order_relaxed);
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
}

std::uint64_t HistogramSnapshot::ApproxQuantile(double q) const {
  if (count == 0) return 0;
  if (q < 0) q = 0;
  if (q > 1) q = 1;
  // Rank of the q-th value, 1-based, rounded up so q=0.5 of 3 values is the
  // 2nd and q=1 is the last.
  std::uint64_t rank = static_cast<std::uint64_t>(q * static_cast<double>(count));
  if (rank == 0) rank = 1;
  if (rank > count) rank = count;
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < kHistogramBuckets; ++i) {
    seen += buckets[i];
    if (seen >= rank) {
      std::uint64_t bound = HistogramBucketUpperBound(i);
      return bound == UINT64_MAX ? max : (bound < max ? bound : max);
    }
  }
  return max;
}

Counter& GetCounter(std::string_view name) {
  Registry& r = Registry::Get();
  std::lock_guard<std::mutex> lock(r.mu);
  auto it = r.counters.find(name);
  if (it == r.counters.end()) {
    it = r.counters.emplace(std::string(name), std::make_unique<Counter>())
             .first;
  }
  return *it->second;
}

CounterSite GetCounterSite(std::string_view name) {
  Registry& r = Registry::Get();
  std::lock_guard<std::mutex> lock(r.mu);
  auto it = r.counters.find(name);
  if (it == r.counters.end()) {
    it = r.counters.emplace(std::string(name), std::make_unique<Counter>())
             .first;
  }
  auto id_it = r.counter_ids.find(name);
  if (id_it == r.counter_ids.end()) {
    std::uint32_t id = kOpCounterUnattributed;
    if (r.counter_names_by_id.size() < kMaxOpCounters) {
      id = static_cast<std::uint32_t>(r.counter_names_by_id.size());
      r.counter_names_by_id.emplace_back(name);
    }
    id_it = r.counter_ids.emplace(std::string(name), id).first;
  }
  return CounterSite(it->second.get(), id_it->second);
}

std::vector<std::string> OpCounterNames() {
  Registry& r = Registry::Get();
  std::lock_guard<std::mutex> lock(r.mu);
  return r.counter_names_by_id;
}

Histogram& GetHistogram(std::string_view name) {
  Registry& r = Registry::Get();
  std::lock_guard<std::mutex> lock(r.mu);
  auto it = r.histograms.find(name);
  if (it == r.histograms.end()) {
    it = r.histograms.emplace(std::string(name), std::make_unique<Histogram>())
             .first;
  }
  return *it->second;
}

MetricsSnapshot SnapshotMetrics() {
  Registry& r = Registry::Get();
  std::lock_guard<std::mutex> lock(r.mu);
  MetricsSnapshot snap;
  for (const auto& [name, counter] : r.counters) {
    snap.counters.emplace(name, counter->value());
  }
  for (const auto& [name, h] : r.histograms) {
    HistogramSnapshot hs;
    hs.count = h->count();  // first: the fields below are at least as new
    if (hs.count > 0) {
      hs.sum = h->sum();
      hs.min = h->min();
      hs.max = h->max();
      for (std::size_t i = 0; i < kHistogramBuckets; ++i) {
        hs.buckets[i] = h->bucket(i);
      }
    }
    snap.histograms.emplace(name, hs);
  }
  return snap;
}

MetricsSnapshot SnapshotDelta(const MetricsSnapshot& before) {
  MetricsSnapshot now = SnapshotMetrics();
  MetricsSnapshot delta;
  for (const auto& [name, value] : now.counters) {
    auto it = before.counters.find(name);
    std::uint64_t prev = it == before.counters.end() ? 0 : it->second;
    if (value > prev) delta.counters.emplace(name, value - prev);
  }
  for (const auto& [name, hs] : now.histograms) {
    auto it = before.histograms.find(name);
    std::uint64_t prev_count =
        it == before.histograms.end() ? 0 : it->second.count;
    std::uint64_t prev_sum = it == before.histograms.end() ? 0 : it->second.sum;
    if (hs.count > prev_count) {
      HistogramSnapshot d;
      d.count = hs.count - prev_count;
      d.sum = hs.sum - prev_sum;
      // min/max cannot be windowed from endpoints; report the cumulative
      // extremes, which still bound the window. Buckets are monotone
      // per-bucket counts, so they window exactly.
      d.min = hs.min;
      d.max = hs.max;
      for (std::size_t i = 0; i < kHistogramBuckets; ++i) {
        std::uint64_t prev_bucket =
            it == before.histograms.end() ? 0 : it->second.buckets[i];
        d.buckets[i] = hs.buckets[i] - prev_bucket;
      }
      delta.histograms.emplace(name, d);
    }
  }
  return delta;
}

void ResetMetrics() {
  Registry& r = Registry::Get();
  std::lock_guard<std::mutex> lock(r.mu);
  for (auto& [name, counter] : r.counters) counter->Reset();
  for (auto& [name, h] : r.histograms) h->Reset();
}

std::string MetricsSnapshot::ToString() const {
  std::string out;
  for (const auto& [name, value] : counters) {
    if (!out.empty()) out.push_back(' ');
    out += name;
    out.push_back('=');
    AppendUint(value, &out);
  }
  for (const auto& [name, hs] : histograms) {
    if (!out.empty()) out.push_back(' ');
    out += name;
    out += "{count=";
    AppendUint(hs.count, &out);
    out += ",sum=";
    AppendUint(hs.sum, &out);
    out += ",min=";
    AppendUint(hs.min, &out);
    out += ",max=";
    AppendUint(hs.max, &out);
    out += ",p50=";
    AppendUint(hs.ApproxQuantile(0.5), &out);
    out += ",p95=";
    AppendUint(hs.ApproxQuantile(0.95), &out);
    out += "}";
  }
  return out;
}

std::string MetricsSnapshot::ToJson() const {
  std::string out = "{\"counters\":{";
  bool first = true;
  for (const auto& [name, value] : counters) {
    if (!first) out.push_back(',');
    first = false;
    internal::AppendJsonString(name, &out);
    out.push_back(':');
    AppendUint(value, &out);
  }
  out += "},\"histograms\":{";
  first = true;
  for (const auto& [name, hs] : histograms) {
    if (!first) out.push_back(',');
    first = false;
    internal::AppendJsonString(name, &out);
    out += ":{\"count\":";
    AppendUint(hs.count, &out);
    out += ",\"sum\":";
    AppendUint(hs.sum, &out);
    out += ",\"min\":";
    AppendUint(hs.min, &out);
    out += ",\"max\":";
    AppendUint(hs.max, &out);
    out += ",\"buckets\":[";
    for (std::size_t i = 0; i < kHistogramBuckets; ++i) {
      if (i != 0) out.push_back(',');
      AppendUint(hs.buckets[i], &out);
    }
    out += "]}";
  }
  out += "}}";
  return out;
}

namespace internal {

void AppendJsonString(std::string_view s, std::string* out) {
  out->push_back('"');
  for (char c : s) {
    switch (c) {
      case '"':
        *out += "\\\"";
        break;
      case '\\':
        *out += "\\\\";
        break;
      case '\n':
        *out += "\\n";
        break;
      case '\r':
        *out += "\\r";
        break;
      case '\t':
        *out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          *out += buf;
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

}  // namespace internal

}  // namespace vqdr::obs
