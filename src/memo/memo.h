#ifndef VQDR_MEMO_MEMO_H_
#define VQDR_MEMO_MEMO_H_

/// vqdr::memo — result caching for the containment / chase / determinacy
/// engines (DESIGN.md §9).
///
/// Memoization is opt-in at runtime and per process: one switch, which starts
/// from the VQDR_MEMO environment variable (off unless set to a truthy value),
/// and one store, GlobalStore(). Every cached engine call goes through
/// memo::CacheThrough (memo/cache_through.h) under that switch and store, so
/// the cold path — including obs counters that tests pin exactly — stays
/// untouched by default.

#include <cstdint>
#include <sstream>
#include <string>

namespace vqdr::memo {

class Store;

/// Monotone cache activity counters plus a point-in-time size/capacity pair.
struct StatsSnapshot {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t installs = 0;
  std::uint64_t evictions = 0;
  std::uint64_t entries = 0;
  std::uint64_t capacity = 0;

  bool any() const { return hits + misses + installs + evictions > 0; }

  /// Activity since `before`: monotone fields subtract, entries/capacity keep
  /// the current (end-of-window) values.
  StatsSnapshot Delta(const StatsSnapshot& before) const {
    StatsSnapshot d;
    d.hits = hits - before.hits;
    d.misses = misses - before.misses;
    d.installs = installs - before.installs;
    d.evictions = evictions - before.evictions;
    d.entries = entries;
    d.capacity = capacity;
    return d;
  }

  /// "hits=3 misses=1 installs=1 evictions=0 entries=12/4096".
  std::string ToString() const {
    std::ostringstream out;
    out << "hits=" << hits << " misses=" << misses << " installs=" << installs
        << " evictions=" << evictions << " entries=" << entries << "/"
        << capacity;
    return out.str();
  }
};

/// Cumulative process-wide snapshot activity (DESIGN.md §14), for the
/// [memo] report line and tests. All counts are monotone.
struct SnapshotActivity {
  std::uint64_t loads = 0;            // successful file loads
  std::uint64_t loaded_entries = 0;   // entries restored into a store
  std::uint64_t skipped_entries = 0;  // unknown-tag entries skipped on load
  std::uint64_t corrupt = 0;          // load attempts rejected as corrupt
  std::uint64_t flushes = 0;          // snapshot files written
  std::uint64_t flushed_entries = 0;  // entries written across all flushes
  std::uint64_t clean_skips = 0;      // flushes skipped (store unchanged)

  bool any() const {
    return loads + loaded_entries + skipped_entries + corrupt + flushes +
               clean_skips >
           0;
  }

  /// "loads=1/12 skipped=0 corrupt=0 flushes=3/12 clean_skips=1".
  std::string ToString() const {
    std::ostringstream out;
    out << "loads=" << loads << "/" << loaded_entries
        << " skipped=" << skipped_entries << " corrupt=" << corrupt
        << " flushes=" << flushes << "/" << flushed_entries
        << " clean_skips=" << clean_skips;
    return out.str();
  }
};

/// Process-wide switch; initialized from the VQDR_MEMO environment variable.
bool Enabled();
void SetEnabled(bool on);

/// The process-wide store; capacity from VQDR_MEMO_CAPACITY (entries, default
/// 8192; invalid or 0 falls back to the default). While a ScopedEnable with a
/// store is alive, returns that store instead.
Store& GlobalStore();

/// Stats of the process-wide store.
StatsSnapshot GlobalStats();

/// Cumulative snapshot load/flush activity (implemented in snapshot.cc).
SnapshotActivity GlobalSnapshotActivity();

/// RAII toggle for tests and benchmarks: sets the process switch for the
/// scope and, when `store` is non-null, makes GlobalStore() return `store`
/// for the scope, nested caches included. Both are restored on exit.
class ScopedEnable {
 public:
  explicit ScopedEnable(bool on, Store* store = nullptr);
  ~ScopedEnable();
  ScopedEnable(const ScopedEnable&) = delete;
  ScopedEnable& operator=(const ScopedEnable&) = delete;

 private:
  bool previous_;
  Store* previous_store_;
};

}  // namespace vqdr::memo

#endif  // VQDR_MEMO_MEMO_H_
