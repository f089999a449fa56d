#ifndef VQDR_MEMO_MEMO_H_
#define VQDR_MEMO_MEMO_H_

/// vqdr::memo — result caching for the containment / chase / determinacy
/// engines (DESIGN.md §9).
///
/// Memoization is opt-in at runtime: the process-wide switch starts from the
/// VQDR_MEMO environment variable (off unless set to a truthy value) and
/// individual calls can force it on or off through MemoOptions. This keeps
/// cold-path behaviour — including obs counters that tests pin exactly —
/// untouched by default.

#include <cstdint>
#include <sstream>
#include <string>

namespace vqdr::memo {

/// Per-call memoization policy. kDefault defers to the process-wide switch.
enum class Use {
  kDefault,
  kOn,
  kOff,
};

class Store;

/// Optional knobs threaded through engine option structs. `store == nullptr`
/// means the process-wide GlobalStore().
struct MemoOptions {
  Use use = Use::kDefault;
  Store* store = nullptr;
};

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

/// True when this call should consult the cache.
bool ResolveUse(const MemoOptions& options);

/// The process-wide store; capacity from VQDR_MEMO_CAPACITY (entries, default
/// 8192; invalid or 0 falls back to the default).
Store& GlobalStore();

/// Picks the store a call should use.
Store& ResolveStore(const MemoOptions& options);

/// Stats of the process-wide store.
StatsSnapshot GlobalStats();

/// Cumulative snapshot load/flush activity (implemented in snapshot.cc).
SnapshotActivity GlobalSnapshotActivity();

/// RAII toggle for tests and benchmarks.
class ScopedEnable {
 public:
  explicit ScopedEnable(bool on) : previous_(Enabled()) { SetEnabled(on); }
  ~ScopedEnable() { SetEnabled(previous_); }
  ScopedEnable(const ScopedEnable&) = delete;
  ScopedEnable& operator=(const ScopedEnable&) = delete;

 private:
  bool previous_;
};

}  // namespace vqdr::memo

#endif  // VQDR_MEMO_MEMO_H_
