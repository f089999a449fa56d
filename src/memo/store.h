#ifndef VQDR_MEMO_STORE_H_
#define VQDR_MEMO_STORE_H_

#include <atomic>
#include <cstddef>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <typeinfo>
#include <unordered_map>
#include <utility>
#include <vector>

#include "memo/memo.h"

namespace vqdr::memo {

/// Sharded, thread-safe, size-bounded (per-shard LRU) map from string keys to
/// immutable type-erased values.
///
/// Design notes:
///  - Values are stored as shared_ptr<const void> plus their type_info, so one
///    store serves heterogeneous result types; Get<T> with the wrong T is a
///    miss, never a reinterpretation.
///  - Entries are immutable once installed and handed out by shared_ptr, so a
///    hit stays valid even if the entry is evicted concurrently.
///  - Put is first-install-wins for the same type: concurrent computations of
///    the same key are deterministic (all callers computed the same value from
///    the same key), so whichever install lands first is kept and the rest are
///    dropped. A Put under an existing key with a *different* type replaces
///    the entry — leaving it would poison the slot forever (every Get of
///    either type misses while every Put is dropped).
///  - Capacity is accounted globally (effective capacity >= requested, never
///    floored away by sharding); eviction is least-recently-used within the
///    inserting shard. Concurrent inserts into distinct shards may transiently
///    overshoot the bound by at most shard_count - 1 entries.
class Store {
 public:
  static constexpr std::size_t kDefaultShards = 8;

  explicit Store(std::size_t capacity, std::size_t shards = kDefaultShards);

  Store(const Store&) = delete;
  Store& operator=(const Store&) = delete;

  /// Returns the cached value for `key` if present with type T, else nullptr.
  /// A present-but-differently-typed entry counts as a miss.
  template <typename T>
  std::shared_ptr<const T> Get(const std::string& key) {
    std::shared_ptr<const void> erased = GetErased(key, typeid(T));
    return std::static_pointer_cast<const T>(erased);
  }

  /// Installs `value` under `key` unless the key is already present with the
  /// same type; a differently-typed occupant is replaced.
  template <typename T>
  void Put(const std::string& key, T value) {
    PutErased(key, std::make_shared<const T>(std::move(value)), typeid(T));
  }

  StatsSnapshot Stats() const;
  void Clear();
  std::size_t capacity() const { return capacity_; }
  std::size_t size() const;

  /// One type-erased entry, as exported for snapshotting (DESIGN.md §14).
  struct ErasedEntry {
    std::string key;
    std::shared_ptr<const void> value;
    const std::type_info* type = nullptr;
  };

  /// A consistent-per-shard copy of every entry, ordered least-recently-used
  /// first within each shard — re-installing in this order reproduces the
  /// recency order, so a restored store evicts the same victims.
  std::vector<ErasedEntry> ExportEntries() const;

  /// Snapshot-restore entry point: same semantics as Put (first install wins
  /// within a type, cross-type replaces), without needing the concrete T.
  void InstallErased(const std::string& key,
                     std::shared_ptr<const void> value,
                     const std::type_info& type) {
    PutErased(key, std::move(value), type);
  }

 private:
  struct Entry {
    std::shared_ptr<const void> value;
    const std::type_info* type = nullptr;
    std::list<std::string>::iterator lru_it;
  };
  struct Shard {
    mutable std::mutex mu;
    std::unordered_map<std::string, Entry> map;
    // Front = most recently used; holds the same keys as `map`.
    std::list<std::string> lru;
  };

  std::shared_ptr<const void> GetErased(const std::string& key,
                                        const std::type_info& type);
  void PutErased(const std::string& key, std::shared_ptr<const void> value,
                 const std::type_info& type);
  Shard& ShardFor(const std::string& key);

  std::size_t capacity_;
  std::size_t shard_count_;
  std::unique_ptr<Shard[]> shards_;

  // Global entry count for the capacity bound; relaxed is fine because every
  // mutation happens under some shard lock and the bound tolerates the
  // documented transient overshoot.
  std::atomic<std::size_t> total_entries_{0};

  // Global monotone counters, relaxed: Stats() is a diagnostic snapshot.
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> installs_{0};
  std::atomic<std::uint64_t> evictions_{0};
};

/// Parses a VQDR_MEMO_CAPACITY value through ParseEnvUint (base/env.h).
/// Returns 0 for anything invalid — empty, a sign, trailing garbage, zero,
/// or a magnitude past SIZE_MAX (accepting strtoull's overflow clamp would
/// make the store effectively unbounded). Exposed for the regression tests.
std::size_t ParseCapacityEnvValue(const char* raw);

}  // namespace vqdr::memo

#endif  // VQDR_MEMO_STORE_H_
