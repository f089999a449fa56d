#ifndef VQDR_OBS_METRICS_H_
#define VQDR_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

// Process-wide counters and histograms for the solver stack.
//
// Counters are named with a dotted scheme grouping them by subsystem:
//   cq.hom.*      homomorphism search (attempts, matches)
//   cq.*          evaluation / containment machinery
//   chase.*       view-inverse chase and Theorem 3.3 chains
//   search.*      bounded finite-counterexample searches
//   rewrite.*     rewriting synthesis and the LMSS-style reference rewriter
//
// Hot paths report through the VQDR_COUNTER_* / VQDR_HISTOGRAM_RECORD macros
// (see obs/obs_macros.h), which cache the registry entry per call site.

namespace vqdr::obs {

/// A monotone process-wide counter. Cheap: one relaxed atomic add.
class Counter {
 public:
  void Add(std::uint64_t n) { value_.fetch_add(n, std::memory_order_relaxed); }
  void Increment() { Add(1); }
  std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

  Counter() = default;
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Number of fixed log2 histogram buckets. Bucket 0 holds the value 0,
/// bucket i (1..30) holds values in [2^(i-1), 2^i - 1], bucket 31 is the
/// overflow tail (v >= 2^30). Fixed power-of-two boundaries keep Record at
/// one extra relaxed add (no per-histogram configuration) while covering
/// every tally the engines emit — instance sizes, chase levels, durations.
inline constexpr std::size_t kHistogramBuckets = 32;

/// Maps a recorded value to its log2 bucket index.
inline std::size_t HistogramBucketIndex(std::uint64_t v) {
  if (v == 0) return 0;
  std::size_t width = static_cast<std::size_t>(std::bit_width(v));
  return width < kHistogramBuckets - 1 ? width : kHistogramBuckets - 1;
}

/// Inclusive upper bound of bucket `i` (2^i - 1), with the overflow bucket
/// reported as UINT64_MAX. Matches the Prometheus `le` boundary per bucket.
inline std::uint64_t HistogramBucketUpperBound(std::size_t i) {
  if (i >= kHistogramBuckets - 1) return UINT64_MAX;
  return (std::uint64_t{1} << i) - 1;
}

/// A size/duration distribution: count, sum, min, max, and a fixed array of
/// log2 buckets for quantile export. Everything on the record path is a
/// relaxed atomic; bucket selection is one bit_width.
class Histogram {
 public:
  void Record(std::uint64_t v);
  std::uint64_t count() const {
    return count_.load(std::memory_order_relaxed);
  }
  std::uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  std::uint64_t min() const { return min_.load(std::memory_order_relaxed); }
  std::uint64_t max() const { return max_.load(std::memory_order_relaxed); }
  std::uint64_t bucket(std::size_t i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }
  void Reset();

  Histogram() = default;
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

 private:
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
  std::atomic<std::uint64_t> min_{UINT64_MAX};
  std::atomic<std::uint64_t> max_{0};
  std::array<std::atomic<std::uint64_t>, kHistogramBuckets> buckets_{};
};

/// Returns the process-wide counter registered under `name`, creating it on
/// first use. The reference stays valid for the process lifetime; call sites
/// should cache it (the VQDR_COUNTER_* macros do so in a static).
Counter& GetCounter(std::string_view name);

/// Same, for histograms.
Histogram& GetHistogram(std::string_view name);

// ---------------------------------------------------------------------------
// Per-operation attribution (the live-telemetry layer, DESIGN.md §11).
//
// Every counter also carries a small dense id. While a thread is bound to an
// in-flight operation (obs/context.h), counter movement is mirrored into
// that operation's private cell array, so the op registry can report exact
// per-op counter deltas even when many engine calls run concurrently. With
// no operation bound the mirror is one thread-local load and a branch.

/// Capacity of the per-op cell array. Counters registered beyond this many
/// distinct names still work globally but stop being attributed per-op (the
/// engines register ~30 names; 64 leaves headroom).
inline constexpr std::size_t kMaxOpCounters = 64;

/// Sentinel id for counters past the attribution capacity.
inline constexpr std::uint32_t kOpCounterUnattributed =
    static_cast<std::uint32_t>(kMaxOpCounters);

/// One operation's private counter cells, indexed by dense counter id.
struct OpMetricCells {
  std::array<std::atomic<std::uint64_t>, kMaxOpCounters> cells{};
};

namespace internal {
/// Cells of the operation the calling thread is currently bound to, or null.
/// Managed exclusively by obs/context.h scopes; everyone else reads it
/// implicitly through OpCounterAdd.
inline thread_local OpMetricCells* t_op_cells = nullptr;
}  // namespace internal

/// Mirrors `n` into the bound operation's cell for counter id `id` (no-op
/// with no bound operation or an unattributed id).
inline void OpCounterAdd(std::uint32_t id, std::uint64_t n) {
  OpMetricCells* cells = internal::t_op_cells;
  if (cells != nullptr && id < kMaxOpCounters) {
    cells->cells[id].fetch_add(n, std::memory_order_relaxed);
  }
}

/// A registered counter plus its dense attribution id: Add() moves the
/// process-wide counter AND the bound operation's cell. This is what the
/// VQDR_COUNTER_* macros cache per call site; engines whose *results* read
/// tallies use it directly so per-op attribution covers those too.
class CounterSite {
 public:
  CounterSite(Counter* counter, std::uint32_t id)
      : counter_(counter), id_(id) {}

  void Add(std::uint64_t n) {
    counter_->Add(n);
    OpCounterAdd(id_, n);
  }
  void Increment() { Add(1); }

  Counter& counter() const { return *counter_; }
  std::uint32_t id() const { return id_; }

 private:
  Counter* counter_;
  std::uint32_t id_;
};

/// Registers (or finds) `name` and returns its counter + dense id.
CounterSite GetCounterSite(std::string_view name);

/// Counter names by dense id, index-aligned with OpMetricCells::cells.
/// Grows as counters register; entries never move or change.
std::vector<std::string> OpCounterNames();

/// A histogram's values at snapshot time. min is 0 when count is 0.
struct HistogramSnapshot {
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t min = 0;
  std::uint64_t max = 0;
  std::array<std::uint64_t, kHistogramBuckets> buckets{};

  /// Upper bound of the smallest bucket whose cumulative count reaches
  /// quantile `q` (clamped to [0,1]) — a power-of-two-granular estimate,
  /// exact enough to read tail behaviour. Returns 0 when count is 0; the
  /// overflow bucket reports max rather than UINT64_MAX.
  std::uint64_t ApproxQuantile(double q) const;
};

/// A point-in-time copy of every registered metric, or (via SnapshotDelta) a
/// window of activity between two points. Attached to DeterminacyReport and
/// embedded in BENCH_*.json.
struct MetricsSnapshot {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, HistogramSnapshot> histograms;

  bool empty() const { return counters.empty() && histograms.empty(); }

  /// "name=value name=value ..." with histograms rendered as
  /// "name{count,sum,min,max,p50,p95}" (quantiles from the log2 buckets).
  /// Deterministic (map order).
  std::string ToString() const;

  /// {"counters":{...},"histograms":{"name":{"count":..,..,"buckets":[..]},..}}
  std::string ToJson() const;
};

/// Snapshots every registered counter and histogram. Zero-valued counters
/// are included (they were touched at least once to be registered).
MetricsSnapshot SnapshotMetrics();

/// Current metrics minus `before`, dropping entries that did not move.
/// The natural way to attribute activity to one call: snapshot, run, delta.
MetricsSnapshot SnapshotDelta(const MetricsSnapshot& before);

/// Resets every registered metric to zero. Registration (and outstanding
/// references) stay valid. Intended for tests and bench warm-up isolation.
void ResetMetrics();

namespace internal {
/// Appends `s` to `out` as a double-quoted JSON string (escapes ", \, and
/// control characters). Shared by metrics, the trace sink, and the bench
/// report writer.
void AppendJsonString(std::string_view s, std::string* out);
}  // namespace internal

}  // namespace vqdr::obs

#include "obs/obs_macros.h"

#endif  // VQDR_OBS_METRICS_H_
