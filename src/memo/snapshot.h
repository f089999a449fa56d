#ifndef VQDR_MEMO_SNAPSHOT_H_
#define VQDR_MEMO_SNAPSHOT_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <typeinfo>

#include "base/status.h"
#include "memo/store.h"

// memo::snapshot — a versioned, crash-safe on-disk image of a memo::Store
// (DESIGN.md §14), so a restarted process serves warm.
//
// File format (all integers little-endian):
//
//   "VQDRSNAP"  8-byte magic
//   u32         format version (kSnapshotVersion)
//   u64         entry count
//   entry*      count times:
//     u32       body length
//     body      Str(tag) Str(key) Str(payload)   (wire.h encoding)
//     u32       CRC-32 of body
//
// Load policy: any structural damage — bad magic, version skew, truncation,
// trailing bytes, a CRC mismatch, an undecodable payload of a *known* tag —
// rejects the whole file (memo.snapshot.corrupt; the store is left exactly
// as it was, never partially loaded). An entry whose CRC is valid but whose
// tag is unregistered is skipped individually (forward compatibility with
// snapshots written by newer builds). A missing file is a clean cold boot.
//
// Write policy: serialize fully in memory, write to `path + ".tmp"`, fsync,
// rename over `path`, fsync the directory. A crash at any point leaves
// either the old complete snapshot or the new complete snapshot.
//
// Safety of persisting results at all: every cached result type is keyed by
// an exact serialization of its inputs (including value-factory state), so a
// restarted process that interns values differently simply misses — a stale
// snapshot entry can waste a slot, never poison a result.

namespace vqdr::memo {

inline constexpr std::uint32_t kSnapshotVersion = 1;

/// CRC-32 (IEEE 802.3 polynomial) of `bytes`; exposed so tests and fuzz
/// seeds can forge or break entry checksums deliberately.
std::uint32_t SnapshotCrc32(std::string_view bytes);

/// Registers the codec for one cached result type. `tag` must be stable
/// across builds (bump it — e.g. "det.v2" — when the payload encoding
/// changes); `encode` receives a value of the registered type, `decode`
/// returns nullptr on malformed payloads. Call once per type, from a static
/// initializer in the TU that owns the type. Thread-safe.
void RegisterSnapshotCodec(
    const std::type_info& type, std::string tag,
    std::function<std::string(const void*)> encode,
    std::function<std::shared_ptr<const void>(std::string_view)> decode);

/// Typed sugar for RegisterSnapshotCodec.
template <typename T>
bool RegisterSnapshotType(const char* tag,
                          std::string (*encode)(const T&),
                          std::shared_ptr<const T> (*decode)(
                              std::string_view)) {
  RegisterSnapshotCodec(
      typeid(T), tag,
      [encode](const void* value) {
        return encode(*static_cast<const T*>(value));
      },
      [decode](std::string_view payload) -> std::shared_ptr<const void> {
        return decode(payload);
      });
  return true;
}

/// True if a codec is registered under `tag` (tests / diagnostics).
bool HasSnapshotCodec(const std::string& tag);

/// Per-operation result detail.
struct SnapshotIoStats {
  std::uint64_t entries = 0;  // written or restored
  std::uint64_t skipped = 0;  // load: unknown-tag entries; save: codec-less
  std::uint64_t bytes = 0;    // file image size
  bool corrupt = false;       // load only: file rejected, nothing installed
  std::string error;          // human detail when corrupt or failed
};

/// Serializes every snapshot-codec-registered entry of `store` to the file
/// image format (in memory). Entries whose type has no codec are skipped.
std::string SerializeSnapshot(const Store& store, SnapshotIoStats* stats);

/// Validates `bytes` and, only if fully valid, installs its entries into
/// `store`. On corruption the store is untouched and stats.corrupt is set.
SnapshotIoStats DeserializeSnapshot(std::string_view bytes, Store& store);

/// SerializeSnapshot + crash-safe write to `path` (temp file, fsync, atomic
/// rename, directory fsync).
Status SaveSnapshot(const Store& store, const std::string& path,
                    SnapshotIoStats* stats = nullptr);

/// Reads `path` and DeserializeSnapshot()s it. A missing file returns
/// cleanly with zero entries and corrupt == false.
SnapshotIoStats LoadSnapshot(Store& store, const std::string& path);

/// Loads the path named by VQDR_MEMO_SNAPSHOT, if set; called by
/// GlobalStore() on first touch. Returns true if a load was attempted.
bool LoadSnapshotFromEnv(Store& store);

/// Periodic background flusher: every `interval_ms` (0 = manual-only, no
/// thread) it writes `store` to `path`, skipping the write when the store
/// has not changed since the previous flush. The destructor stops the
/// thread and performs a final flush, so owning one from a service object
/// gives flush-on-drain for free.
class SnapshotFlusher {
 public:
  SnapshotFlusher(Store& store, std::string path, std::uint64_t interval_ms);
  ~SnapshotFlusher();

  SnapshotFlusher(const SnapshotFlusher&) = delete;
  SnapshotFlusher& operator=(const SnapshotFlusher&) = delete;

  /// Flushes now (regardless of the change check). Thread-safe.
  Status FlushNow(SnapshotIoStats* stats = nullptr);

  /// Stops the background thread; final_flush writes once more first.
  void Stop(bool final_flush = true);

  const std::string& path() const { return path_; }

 private:
  void Loop();
  bool Dirty();

  Store& store_;
  const std::string path_;
  const std::uint64_t interval_ms_;

  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  bool stopped_ = false;
  std::uint64_t last_change_marker_ = ~std::uint64_t{0};
  std::thread thread_;
};

}  // namespace vqdr::memo

#endif  // VQDR_MEMO_SNAPSHOT_H_
