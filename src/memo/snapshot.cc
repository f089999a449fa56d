#include "memo/snapshot.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <typeindex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "base/wire.h"
#include "obs/metrics.h"
#include "obs/obs_macros.h"

namespace vqdr::memo {

namespace {

constexpr char kMagic[8] = {'V', 'Q', 'D', 'R', 'S', 'N', 'A', 'P'};
// An entry body larger than this is rejected as structural damage; real
// bodies are orders of magnitude smaller and a forged u32 length must not
// drive a giant allocation.
constexpr std::uint32_t kMaxEntryBytes = 64u << 20;

struct Codec {
  std::string tag;
  const std::type_info* type = nullptr;
  std::function<std::string(const void*)> encode;
  std::function<std::shared_ptr<const void>(std::string_view)> decode;
};

struct Registry {
  std::mutex mu;
  std::unordered_map<std::type_index, Codec> by_type;
  std::unordered_map<std::string, const Codec*> by_tag;
};

Registry& GlobalRegistry() {
  static Registry* registry = new Registry();
  return *registry;
}

// Monotone process-wide activity, mirrored into obs counters. Plain atomics
// read back by GlobalSnapshotActivity() for the [memo] report line.
struct Activity {
  std::atomic<std::uint64_t> loads{0};
  std::atomic<std::uint64_t> loaded_entries{0};
  std::atomic<std::uint64_t> skipped_entries{0};
  std::atomic<std::uint64_t> corrupt{0};
  std::atomic<std::uint64_t> flushes{0};
  std::atomic<std::uint64_t> flushed_entries{0};
  std::atomic<std::uint64_t> clean_skips{0};
};

Activity& GlobalActivity() {
  static Activity* activity = new Activity();
  return *activity;
}

const std::uint32_t* Crc32Table() {
  static const std::uint32_t* table = [] {
    auto* t = new std::uint32_t[256];
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
    return t;
  }();
  return table;
}

// ---- built-in codec: bool (the containment verdict cache) ----------------

std::string EncodeBool(const bool& value) {
  return std::string(1, value ? '\x01' : '\x00');
}

std::shared_ptr<const bool> DecodeBool(std::string_view payload) {
  if (payload.size() != 1 || (payload[0] != '\x00' && payload[0] != '\x01')) {
    return nullptr;
  }
  return std::make_shared<const bool>(payload[0] == '\x01');
}

[[maybe_unused]] const bool kBoolCodecRegistered =
    RegisterSnapshotType<bool>("bool.v1", EncodeBool, DecodeBool);

}  // namespace

std::uint32_t SnapshotCrc32(std::string_view bytes) {
  const std::uint32_t* table = Crc32Table();
  std::uint32_t crc = 0xFFFFFFFFu;
  for (char ch : bytes) {
    crc = table[(crc ^ static_cast<unsigned char>(ch)) & 0xFF] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

void RegisterSnapshotCodec(
    const std::type_info& type, std::string tag,
    std::function<std::string(const void*)> encode,
    std::function<std::shared_ptr<const void>(std::string_view)> decode) {
  Registry& registry = GlobalRegistry();
  std::lock_guard<std::mutex> lock(registry.mu);
  Codec& codec = registry.by_type[std::type_index(type)];
  codec.tag = std::move(tag);
  codec.type = &type;
  codec.encode = std::move(encode);
  codec.decode = std::move(decode);
  registry.by_tag[codec.tag] = &codec;
}

bool HasSnapshotCodec(const std::string& tag) {
  Registry& registry = GlobalRegistry();
  std::lock_guard<std::mutex> lock(registry.mu);
  return registry.by_tag.find(tag) != registry.by_tag.end();
}

std::string SerializeSnapshot(const Store& store, SnapshotIoStats* stats) {
  SnapshotIoStats local;
  std::vector<Store::ErasedEntry> entries = store.ExportEntries();
  Registry& registry = GlobalRegistry();

  std::string body;
  std::uint64_t written = 0;
  for (const Store::ErasedEntry& entry : entries) {
    std::string tag;
    std::string payload;
    {
      std::lock_guard<std::mutex> lock(registry.mu);
      auto it = registry.by_type.find(std::type_index(*entry.type));
      if (it == registry.by_type.end()) {
        ++local.skipped;
        continue;
      }
      tag = it->second.tag;
      payload = it->second.encode(entry.value.get());
    }
    wire::Encoder entry_enc;
    entry_enc.Str(tag);
    entry_enc.Str(entry.key);
    entry_enc.Str(payload);
    std::string entry_body = entry_enc.Take();
    wire::Encoder framed;
    framed.U32(static_cast<std::uint32_t>(entry_body.size()));
    framed.Raw(entry_body);
    framed.U32(SnapshotCrc32(entry_body));
    body.append(framed.str());
    ++written;
  }

  wire::Encoder header;
  header.Raw(std::string_view(kMagic, sizeof(kMagic)));
  header.U32(kSnapshotVersion);
  header.U64(written);
  std::string out = header.Take();
  out.append(body);

  local.entries = written;
  local.bytes = out.size();
  if (stats != nullptr) *stats = local;
  return out;
}

SnapshotIoStats DeserializeSnapshot(std::string_view bytes, Store& store) {
  SnapshotIoStats stats;
  auto corrupt = [&stats](const std::string& why) {
    stats.corrupt = true;
    stats.entries = 0;
    stats.error = why;
    GlobalActivity().corrupt.fetch_add(1, std::memory_order_relaxed);
    VQDR_COUNTER_INC("memo.snapshot.corrupt");
    return stats;
  };

  stats.bytes = bytes.size();
  if (bytes.size() < sizeof(kMagic) + 4 + 8) {
    return corrupt("file shorter than the header");
  }
  if (std::memcmp(bytes.data(), kMagic, sizeof(kMagic)) != 0) {
    return corrupt("bad magic");
  }
  wire::Decoder dec(bytes.substr(sizeof(kMagic)));
  std::uint32_t version = dec.U32();
  if (version != kSnapshotVersion) {
    return corrupt("version skew: file v" + std::to_string(version) +
                   ", reader v" + std::to_string(kSnapshotVersion));
  }
  std::uint64_t count = dec.U64();
  if (!dec.CheckCount(count, 8)) {
    return corrupt("entry count exceeds file size");
  }

  // Stage everything first: a failure anywhere must leave `store` untouched.
  struct Staged {
    std::string key;
    std::shared_ptr<const void> value;
    const std::type_info* type;
  };
  std::vector<Staged> staged;
  staged.reserve(static_cast<std::size_t>(count));
  Registry& registry = GlobalRegistry();

  for (std::uint64_t i = 0; i < count; ++i) {
    std::uint32_t body_len = dec.U32();
    if (!dec.ok() || body_len > kMaxEntryBytes || body_len > dec.remaining()) {
      return corrupt("truncated entry " + std::to_string(i));
    }
    std::string body = dec.Bytes(body_len);
    std::uint32_t crc = dec.U32();
    if (!dec.ok()) return corrupt("truncated entry " + std::to_string(i));
    if (crc != SnapshotCrc32(body)) {
      return corrupt("CRC mismatch on entry " + std::to_string(i));
    }
    wire::Decoder entry(body);
    std::string tag = entry.Str();
    std::string key = entry.Str();
    std::string payload = entry.Str();
    if (!entry.ok() || !entry.AtEnd()) {
      return corrupt("malformed entry body " + std::to_string(i));
    }
    std::function<std::shared_ptr<const void>(std::string_view)> decode;
    const std::type_info* type = nullptr;
    {
      std::lock_guard<std::mutex> lock(registry.mu);
      auto it = registry.by_tag.find(tag);
      if (it != registry.by_tag.end()) {
        decode = it->second->decode;
        type = it->second->type;
      }
    }
    if (!decode) {
      // Unknown tag with a valid CRC: a snapshot from a newer build. Skip
      // just this entry — forward compatibility, not corruption.
      ++stats.skipped;
      continue;
    }
    std::shared_ptr<const void> value = decode(payload);
    if (value == nullptr) {
      return corrupt("undecodable payload for tag \"" + tag + "\" (entry " +
                     std::to_string(i) + ")");
    }
    staged.push_back({std::move(key), std::move(value), type});
  }
  if (!dec.AtEnd()) return corrupt("trailing bytes after the last entry");

  for (Staged& entry : staged) {
    store.InstallErased(entry.key, std::move(entry.value), *entry.type);
  }
  stats.entries = staged.size();

  Activity& activity = GlobalActivity();
  activity.loads.fetch_add(1, std::memory_order_relaxed);
  activity.loaded_entries.fetch_add(stats.entries, std::memory_order_relaxed);
  activity.skipped_entries.fetch_add(stats.skipped,
                                     std::memory_order_relaxed);
  VQDR_COUNTER_INC("memo.snapshot.loads");
  VQDR_COUNTER_ADD("memo.snapshot.load.entries", stats.entries);
  VQDR_COUNTER_ADD("memo.snapshot.load.skipped", stats.skipped);
  return stats;
}

Status SaveSnapshot(const Store& store, const std::string& path,
                    SnapshotIoStats* stats) {
  SnapshotIoStats local;
  std::string bytes = SerializeSnapshot(store, &local);
  const std::string tmp = path + ".tmp";

  int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    return Status::Internal("snapshot: open(" + tmp +
                            ") failed: " + std::strerror(errno));
  }
  std::size_t off = 0;
  while (off < bytes.size()) {
    ssize_t n = ::write(fd, bytes.data() + off, bytes.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      int err = errno;
      ::close(fd);
      ::unlink(tmp.c_str());
      return Status::Internal("snapshot: write failed: " +
                              std::string(std::strerror(err)));
    }
    off += static_cast<std::size_t>(n);
  }
  if (::fsync(fd) < 0) {
    int err = errno;
    ::close(fd);
    ::unlink(tmp.c_str());
    return Status::Internal("snapshot: fsync failed: " +
                            std::string(std::strerror(err)));
  }
  ::close(fd);
  if (::rename(tmp.c_str(), path.c_str()) < 0) {
    int err = errno;
    ::unlink(tmp.c_str());
    return Status::Internal("snapshot: rename to " + path +
                            " failed: " + std::strerror(err));
  }
  // Make the rename itself durable. Best-effort: some filesystems refuse
  // O_RDONLY on directories, and the data is already safe on disk.
  std::string dir = path;
  std::size_t slash = dir.find_last_of('/');
  dir = slash == std::string::npos ? "." : dir.substr(0, slash);
  int dfd = ::open(dir.c_str(), O_RDONLY);
  if (dfd >= 0) {
    (void)::fsync(dfd);
    ::close(dfd);
  }

  Activity& activity = GlobalActivity();
  activity.flushes.fetch_add(1, std::memory_order_relaxed);
  activity.flushed_entries.fetch_add(local.entries,
                                     std::memory_order_relaxed);
  VQDR_COUNTER_INC("memo.snapshot.flushes");
  VQDR_COUNTER_ADD("memo.snapshot.flush.entries", local.entries);
  VQDR_HISTOGRAM_RECORD("memo.snapshot.bytes", local.bytes);
  if (stats != nullptr) *stats = local;
  return Status::Ok();
}

SnapshotIoStats LoadSnapshot(Store& store, const std::string& path) {
  SnapshotIoStats stats;
  int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    // Absent snapshot = first boot; anything else (EACCES...) is still a
    // clean cold boot, but leave a breadcrumb in the error field.
    if (errno != ENOENT) {
      stats.error = "snapshot: open(" + path +
                    ") failed: " + std::strerror(errno);
    }
    return stats;
  }
  std::string bytes;
  char chunk[1 << 16];
  while (true) {
    ssize_t n = ::read(fd, chunk, sizeof(chunk));
    if (n < 0) {
      if (errno == EINTR) continue;
      stats.error = "snapshot: read failed: " +
                    std::string(std::strerror(errno));
      ::close(fd);
      return stats;
    }
    if (n == 0) break;
    bytes.append(chunk, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return DeserializeSnapshot(bytes, store);
}

bool LoadSnapshotFromEnv(Store& store) {
  const char* path = std::getenv("VQDR_MEMO_SNAPSHOT");
  if (path == nullptr || *path == '\0') return false;
  LoadSnapshot(store, path);
  return true;
}

SnapshotActivity GlobalSnapshotActivity() {
  const Activity& a = GlobalActivity();
  SnapshotActivity out;
  out.loads = a.loads.load(std::memory_order_relaxed);
  out.loaded_entries = a.loaded_entries.load(std::memory_order_relaxed);
  out.skipped_entries = a.skipped_entries.load(std::memory_order_relaxed);
  out.corrupt = a.corrupt.load(std::memory_order_relaxed);
  out.flushes = a.flushes.load(std::memory_order_relaxed);
  out.flushed_entries = a.flushed_entries.load(std::memory_order_relaxed);
  out.clean_skips = a.clean_skips.load(std::memory_order_relaxed);
  return out;
}

// ---- SnapshotFlusher ------------------------------------------------------

SnapshotFlusher::SnapshotFlusher(Store& store, std::string path,
                                 std::uint64_t interval_ms)
    : store_(store), path_(std::move(path)), interval_ms_(interval_ms) {
  if (interval_ms_ > 0) {
    thread_ = std::thread([this] { Loop(); });
  }
}

SnapshotFlusher::~SnapshotFlusher() { Stop(/*final_flush=*/true); }

bool SnapshotFlusher::Dirty() {
  // Content changes are exactly installs + evictions (hits only reorder).
  StatsSnapshot s = store_.Stats();
  std::uint64_t marker = s.installs + s.evictions;
  if (marker == last_change_marker_) {
    GlobalActivity().clean_skips.fetch_add(1, std::memory_order_relaxed);
    VQDR_COUNTER_INC("memo.snapshot.flush.clean_skips");
    return false;
  }
  last_change_marker_ = marker;
  return true;
}

Status SnapshotFlusher::FlushNow(SnapshotIoStats* stats) {
  std::lock_guard<std::mutex> lock(mu_);
  StatsSnapshot s = store_.Stats();
  last_change_marker_ = s.installs + s.evictions;
  return SaveSnapshot(store_, path_, stats);
}

void SnapshotFlusher::Stop(bool final_flush) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopped_) return;
    stop_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopped_ = true;
    if (final_flush) (void)SaveSnapshot(store_, path_, nullptr);
  }
}

void SnapshotFlusher::Loop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (!stop_) {
    cv_.wait_for(lock, std::chrono::milliseconds(interval_ms_),
                 [this] { return stop_; });
    if (stop_) break;
    if (!Dirty()) continue;
    Status s = SaveSnapshot(store_, path_, nullptr);
    if (!s.ok()) {
      std::fprintf(stderr, "memo: %s\n", s.message().c_str());
    }
  }
}

}  // namespace vqdr::memo
