// Snapshot battery (DESIGN.md §14): the wire primitives, the exact
// serialization of engine result types, the versioned on-disk store image
// with its corruption matrix, the crash-safe save path, the background
// flusher, and the three store bugfix regressions this PR pins (cross-type
// slot poisoning, ERANGE capacity overflow, per-shard capacity floors).

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include <sys/stat.h>

#include "base/wire.h"
#include "chase/chain.h"
#include "core/determinacy.h"
#include "cq/parser.h"
#include "cq/serialize.h"
#include "data/serialize.h"
#include "gen/workloads.h"
#include "memo/memo.h"
#include "memo/snapshot.h"
#include "memo/store.h"

namespace vqdr {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "vqdr_snap_" + name;
}

bool FileExists(const std::string& path) {
  struct stat st{};
  return ::stat(path.c_str(), &st) == 0;
}

// --- wire primitives -------------------------------------------------------

TEST(Wire, RoundTripsFixedWidthAndStrings) {
  wire::Encoder enc;
  enc.U8(0xab);
  enc.U32(0xdeadbeefu);
  enc.U64(0x0123456789abcdefull);
  enc.I64(-42);
  enc.Str("hello");
  enc.Str("");  // empty strings round-trip too
  std::string bytes = enc.Take();

  wire::Decoder dec(bytes);
  EXPECT_EQ(dec.U8(), 0xab);
  EXPECT_EQ(dec.U32(), 0xdeadbeefu);
  EXPECT_EQ(dec.U64(), 0x0123456789abcdefull);
  EXPECT_EQ(dec.I64(), -42);
  EXPECT_EQ(dec.Str(), "hello");
  EXPECT_EQ(dec.Str(), "");
  EXPECT_TRUE(dec.ok());
  EXPECT_TRUE(dec.AtEnd());
}

TEST(Wire, TruncationFlipsOkInsteadOfThrowing) {
  wire::Encoder enc;
  enc.U64(7);
  std::string bytes = enc.Take();
  wire::Decoder dec(std::string_view(bytes).substr(0, 5));
  EXPECT_EQ(dec.U64(), 0u);
  EXPECT_FALSE(dec.ok());
  // Once bad, always bad — later reads stay zero.
  EXPECT_EQ(dec.U8(), 0u);
  EXPECT_FALSE(dec.ok());
}

TEST(Wire, StrRejectsLengthBeyondInput) {
  wire::Encoder enc;
  enc.U64(1u << 30);  // claims a gigabyte follows
  enc.Raw("xy");
  std::string bytes = enc.Take();
  wire::Decoder dec(bytes);
  EXPECT_EQ(dec.Str(), "");
  EXPECT_FALSE(dec.ok());
}

TEST(Wire, CheckCountRejectsForgedCounts) {
  std::string small(16, 'a');
  wire::Decoder dec(small);
  EXPECT_TRUE(dec.CheckCount(4, 4));
  EXPECT_TRUE(dec.ok());
  wire::Decoder dec2(small);
  EXPECT_FALSE(dec2.CheckCount(1u << 20, 8));
  EXPECT_FALSE(dec2.ok());
}

// --- engine-type serialization --------------------------------------------

TEST(SnapshotCodecs, InstanceRoundTripsExactly) {
  NamePool pool;
  Schema schema;
  schema.Add("E", 2);
  schema.Add("Unary", 1);
  schema.Add("Empty", 3);  // never populated; must survive the round trip
  Instance inst(schema);
  inst.AddFact("E", Tuple{Value(1), Value(2)});
  inst.AddFact("E", Tuple{Value(2), Value(3)});
  inst.AddFact("Unary", Tuple{Value(-7)});

  wire::Encoder enc;
  EncodeInstance(inst, enc);
  std::string bytes = enc.Take();

  wire::Decoder dec(bytes);
  Instance out;
  ASSERT_TRUE(DecodeInstance(dec, &out));
  EXPECT_TRUE(dec.ok());
  EXPECT_TRUE(dec.AtEnd());
  EXPECT_EQ(out.ToKey(), inst.ToKey());
  EXPECT_TRUE(out.schema().Contains("Empty"));
  EXPECT_EQ(out.schema().ArityOf("Empty"), 3);
}

TEST(SnapshotCodecs, CqAndUcqRoundTripExactly) {
  NamePool pool;
  auto q = ParseCq("Q(x, y) :- E(x, z), E(z, y), x != y", pool);
  ASSERT_TRUE(q.ok()) << q.status().message();

  wire::Encoder enc;
  EncodeCq(q.value(), enc);
  std::string bytes = enc.Take();
  wire::Decoder dec(bytes);
  ConjunctiveQuery out;
  ASSERT_TRUE(DecodeCq(dec, &out));
  EXPECT_TRUE(dec.AtEnd());
  // Name ids are preserved exactly, so the id-level rendering matches.
  EXPECT_EQ(out.ToString(), q->ToString());

  auto u = ParseUcq("Q(x) :- A(x) | Q(x) :- B(x, x)", pool);
  ASSERT_TRUE(u.ok()) << u.status().message();
  wire::Encoder enc2;
  EncodeUcq(u.value(), enc2);
  std::string bytes2 = enc2.Take();
  wire::Decoder dec2(bytes2);
  UnionQuery uout;
  ASSERT_TRUE(DecodeUcq(dec2, &uout));
  EXPECT_TRUE(dec2.AtEnd());
  ASSERT_EQ(uout.disjuncts().size(), 2u);
  EXPECT_EQ(uout.ToString(), u->ToString());
}

TEST(SnapshotCodecs, DecodersRejectDamageWithoutAborting) {
  NamePool pool;
  auto q = ParseCq("Q(x) :- E(x, y)", pool);
  ASSERT_TRUE(q.ok());
  wire::Encoder enc;
  EncodeCq(q.value(), enc);
  std::string bytes = enc.Take();
  // Every strict prefix must decode to failure, not to a crash or an abort
  // (decoders validate before touching aborting builders).
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    wire::Decoder dec(std::string_view(bytes).substr(0, cut));
    ConjunctiveQuery out;
    bool okd = DecodeCq(dec, &out);
    EXPECT_TRUE(!okd || !dec.AtEnd());
  }
}

TEST(SnapshotCodecs, BuiltinTagsAreRegistered) {
  EXPECT_TRUE(memo::HasSnapshotCodec("bool.v1"));
  EXPECT_TRUE(memo::HasSnapshotCodec("cq.v1"));
  EXPECT_TRUE(memo::HasSnapshotCodec("ucq.v1"));
  EXPECT_TRUE(memo::HasSnapshotCodec("chase.vinv.v1"));
  EXPECT_TRUE(memo::HasSnapshotCodec("chase.chain.v1"));
  EXPECT_TRUE(memo::HasSnapshotCodec("det.v1"));
  EXPECT_FALSE(memo::HasSnapshotCodec("nosuch.v1"));
}

// --- bugfix regressions ----------------------------------------------------

// Pre-PR, PutErased early-returned on any existing key while GetErased
// treated a type mismatch as a miss: one Put<int> under a key poisoned the
// slot — every later Get<double> missed and every later Put<double> was
// dropped, forever. Now a differently-typed Put replaces the occupant.
TEST(StoreRegression, CrossTypePutReplacesPoisonedSlot) {
  memo::Store store(16);
  store.Put<int>("k", 7);
  ASSERT_EQ(store.Get<double>("k"), nullptr);  // miss, as documented
  store.Put<double>("k", 2.5);                 // pre-PR: silently dropped
  auto d = store.Get<double>("k");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(*d, 2.5);
  // The old occupant is gone (replace, not shadow) and the store never
  // counted two entries for one key.
  EXPECT_EQ(store.Get<int>("k"), nullptr);
  EXPECT_EQ(store.size(), 1u);
}

// Pre-PR, CapacityFromEnv accepted strtoull's ERANGE result (ULLONG_MAX
// clamped), making the store effectively unbounded on a fat-fingered env
// var. ParseCapacityEnvValue is the extracted, testable core: 0 = invalid.
TEST(StoreRegression, CapacityEnvOverflowIsRejected) {
  EXPECT_EQ(memo::ParseCapacityEnvValue("99999999999999999999999"), 0u);
  EXPECT_EQ(memo::ParseCapacityEnvValue("18446744073709551616"), 0u);  // 2^64
  EXPECT_EQ(memo::ParseCapacityEnvValue("-1"), 0u);
  EXPECT_EQ(memo::ParseCapacityEnvValue("12x"), 0u);
  EXPECT_EQ(memo::ParseCapacityEnvValue(""), 0u);
  EXPECT_EQ(memo::ParseCapacityEnvValue("0"), 0u);
  EXPECT_EQ(memo::ParseCapacityEnvValue("8"), 8u);
  EXPECT_EQ(memo::ParseCapacityEnvValue("8192"), 8192u);
}

// Capacity was once split per shard with a floor of one: Store(10) over 8
// shards held at most 8 entries and could evict after the second insert
// into one shard. The store is now one LRU, so all 10 fit.
TEST(StoreRegression, SmallCapacityIsNotFlooredAwayBySharding) {
  memo::Store store(10);
  for (int i = 0; i < 10; ++i) {
    store.Put<int>("key-" + std::to_string(i), i);
  }
  EXPECT_EQ(store.size(), 10u);
  EXPECT_EQ(store.Stats().evictions, 0u);
  for (int i = 0; i < 10; ++i) {
    EXPECT_NE(store.Get<int>("key-" + std::to_string(i)), nullptr) << i;
  }
  // The bound still holds globally: an 11th entry evicts somebody.
  store.Put<int>("key-10", 10);
  EXPECT_LE(store.size(), 10u);
  EXPECT_EQ(store.Stats().evictions, 1u);
}

// --- snapshot round trips --------------------------------------------------

TEST(Snapshot, EmptyStoreRoundTrips) {
  memo::Store store(16);
  memo::SnapshotIoStats wstats;
  std::string image = memo::SerializeSnapshot(store, &wstats);
  EXPECT_EQ(wstats.entries, 0u);

  memo::Store fresh(16);
  memo::SnapshotIoStats rstats = memo::DeserializeSnapshot(image, fresh);
  EXPECT_FALSE(rstats.corrupt) << rstats.error;
  EXPECT_EQ(rstats.entries, 0u);
  EXPECT_EQ(fresh.size(), 0u);
}

TEST(Snapshot, BoolEntriesRoundTrip) {
  memo::Store store(16);
  store.Put<bool>("yes", true);
  store.Put<bool>("no", false);
  std::string image = memo::SerializeSnapshot(store, nullptr);

  memo::Store fresh(16);
  memo::SnapshotIoStats stats = memo::DeserializeSnapshot(image, fresh);
  EXPECT_FALSE(stats.corrupt) << stats.error;
  EXPECT_EQ(stats.entries, 2u);
  auto yes = fresh.Get<bool>("yes");
  auto no = fresh.Get<bool>("no");
  ASSERT_NE(yes, nullptr);
  ASSERT_NE(no, nullptr);
  EXPECT_TRUE(*yes);
  EXPECT_FALSE(*no);
}

TEST(Snapshot, CodecLessTypesAreSkippedOnWrite) {
  memo::Store store(16);
  store.Put<bool>("b", true);
  store.Put<int>("i", 42);  // no codec registered for int
  memo::SnapshotIoStats stats;
  std::string image = memo::SerializeSnapshot(store, &stats);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.skipped, 1u);

  memo::Store fresh(16);
  memo::SnapshotIoStats rstats = memo::DeserializeSnapshot(image, fresh);
  EXPECT_FALSE(rstats.corrupt);
  EXPECT_EQ(rstats.entries, 1u);
  EXPECT_EQ(fresh.size(), 1u);
}

// The warm-boot story end to end, in process: run the real determinacy
// engine against a private store, snapshot it, restore into a fresh store,
// and verify the re-run is a pure hit with an identical result.
TEST(Snapshot, DeterminacyWorkloadSurvivesRoundTrip) {
  ViewSet views = PathViews(2);
  ConjunctiveQuery q = ChainQuery(2);

  memo::Store cold(64);
  UnrestrictedDeterminacyResult first = [&] {
    memo::ScopedEnable on(true, &cold);
    return DecideUnrestrictedDeterminacy(views, q);
  }();
  ASSERT_TRUE(guard::IsComplete(first.outcome));
  ASSERT_GE(cold.size(), 1u);

  memo::SnapshotIoStats wstats;
  std::string image = memo::SerializeSnapshot(cold, &wstats);
  EXPECT_GE(wstats.entries, 1u);
  EXPECT_EQ(wstats.skipped, 0u) << "an engine type lost its codec";

  memo::Store warm(64);
  memo::SnapshotIoStats rstats = memo::DeserializeSnapshot(image, warm);
  ASSERT_FALSE(rstats.corrupt) << rstats.error;
  EXPECT_EQ(rstats.entries, wstats.entries);

  std::uint64_t misses_before = warm.Stats().misses;
  memo::ScopedEnable on(true, &warm);
  UnrestrictedDeterminacyResult replay =
      DecideUnrestrictedDeterminacy(views, q);
  EXPECT_EQ(warm.Stats().misses, misses_before) << "restored entry missed";
  EXPECT_GE(warm.Stats().hits, 1u);
  EXPECT_EQ(replay.determined, first.determined);
  EXPECT_EQ(replay.canonical_view_image.ToKey(),
            first.canonical_view_image.ToKey());
  EXPECT_EQ(replay.chase_inverse.ToKey(), first.chase_inverse.ToKey());
  EXPECT_EQ(replay.frozen_head, first.frozen_head);
  ASSERT_EQ(replay.canonical_rewriting.has_value(),
            first.canonical_rewriting.has_value());
  if (replay.canonical_rewriting.has_value()) {
    EXPECT_EQ(replay.canonical_rewriting->ToString(),
              first.canonical_rewriting->ToString());
  }
}

// The chase chain rides through its own codec, including minted-null
// factory state: the warm run must keep producing fresh ids above the
// snapshot's, not collide with restored ones.
TEST(Snapshot, ChaseChainWorkloadSurvivesRoundTrip) {
  ViewSet views = PathViews(2);
  ConjunctiveQuery q = ChainQuery(3);
  ChaseChainOptions options;
  options.levels = 2;

  memo::Store cold(64);
  ValueFactory f1;
  ChaseChain first = [&] {
    memo::ScopedEnable on(true, &cold);
    return BuildChaseChain(views, q, options, f1);
  }();
  ASSERT_GE(cold.size(), 1u);

  std::string image = memo::SerializeSnapshot(cold, nullptr);
  memo::Store warm(64);
  ASSERT_FALSE(memo::DeserializeSnapshot(image, warm).corrupt);

  memo::ScopedEnable on(true, &warm);
  ValueFactory f2;
  ChaseChain replay = BuildChaseChain(views, q, options, f2);
  EXPECT_GE(warm.Stats().hits, 1u);
  ASSERT_EQ(replay.d_prime.size(), first.d_prime.size());
  for (std::size_t k = 0; k < replay.d_prime.size(); ++k) {
    EXPECT_EQ(replay.d_prime[k].ToKey(), first.d_prime[k].ToKey()) << k;
  }
  // Factory replay: both runs end at the same next id.
  EXPECT_EQ(f2.next_id(), f1.next_id());
}

TEST(Snapshot, RestorePreservesLruOrder) {
  memo::Store cold(/*capacity=*/3);
  cold.Put<bool>("a", true);
  cold.Put<bool>("b", true);
  cold.Put<bool>("c", true);
  ASSERT_NE(cold.Get<bool>("a"), nullptr);  // "a" becomes most-recent

  std::string image = memo::SerializeSnapshot(cold, nullptr);
  memo::Store warm(/*capacity=*/3);
  ASSERT_FALSE(memo::DeserializeSnapshot(image, warm).corrupt);

  // The restored recency order must match: inserting one more evicts "b"
  // (the least-recently-used), exactly as it would have in `cold`.
  warm.Put<bool>("d", true);
  EXPECT_EQ(warm.Get<bool>("b"), nullptr);
  EXPECT_NE(warm.Get<bool>("a"), nullptr);
  EXPECT_NE(warm.Get<bool>("c"), nullptr);
  EXPECT_NE(warm.Get<bool>("d"), nullptr);
}

// --- the corruption matrix -------------------------------------------------

// A valid two-entry image to damage.
std::string ValidImage() {
  memo::Store store(16);
  store.Put<bool>("alpha", true);
  store.Put<bool>("beta", false);
  return memo::SerializeSnapshot(store, nullptr);
}

// Every damaged load must leave the store exactly as it was (empty), set
// corrupt, and never crash — the cold-boot-on-corruption contract.
void ExpectWholeFileReject(const std::string& image, const char* what) {
  memo::Store store(16);
  memo::SnapshotIoStats stats = memo::DeserializeSnapshot(image, store);
  EXPECT_TRUE(stats.corrupt) << what;
  EXPECT_EQ(stats.entries, 0u) << what;
  EXPECT_EQ(store.size(), 0u) << what << ": store must stay untouched";
}

TEST(SnapshotCorruption, ZeroLengthFile) {
  ExpectWholeFileReject("", "zero-length");
}

TEST(SnapshotCorruption, BadMagic) {
  std::string image = ValidImage();
  image[0] = 'X';
  ExpectWholeFileReject(image, "bad magic");
}

TEST(SnapshotCorruption, VersionSkew) {
  std::string image = ValidImage();
  image[8] = static_cast<char>(memo::kSnapshotVersion + 1);
  ExpectWholeFileReject(image, "future version");
}

TEST(SnapshotCorruption, TruncatedAnywhere) {
  std::string image = ValidImage();
  // Chop at every prefix length: header cuts, mid-entry cuts, CRC cuts.
  for (std::size_t cut = 0; cut < image.size(); ++cut) {
    ExpectWholeFileReject(image.substr(0, cut),
                          ("truncated at " + std::to_string(cut)).c_str());
  }
}

TEST(SnapshotCorruption, TrailingGarbage) {
  std::string image = ValidImage() + "junk";
  ExpectWholeFileReject(image, "trailing bytes");
}

TEST(SnapshotCorruption, FlippedPayloadByteFailsCrc) {
  std::string image = ValidImage();
  // Flip one byte inside the first entry body (past magic+version+count =
  // 8 + 4 + 8 = 20, plus the 4-byte body length).
  image[26] = static_cast<char>(image[26] ^ 0x40);
  ExpectWholeFileReject(image, "flipped body byte");
}

TEST(SnapshotCorruption, UndecodablePayloadOfKnownTagRejectsFile) {
  // Forge an entry with the registered bool.v1 tag but a 3-byte payload the
  // codec rejects — structural damage, so the whole file goes.
  wire::Encoder body;
  body.Str("bool.v1");
  body.Str("key");
  body.Str("zzz");
  std::string b = body.Take();
  wire::Encoder enc;
  enc.Raw("VQDRSNAP");
  enc.U32(memo::kSnapshotVersion);
  enc.U64(1);
  enc.U32(static_cast<std::uint32_t>(b.size()));
  enc.Raw(b);
  enc.U32(memo::SnapshotCrc32(b));
  ExpectWholeFileReject(enc.Take(), "undecodable known-tag payload");
}

TEST(SnapshotCorruption, UnknownTagWithValidCrcIsSkippedNotFatal) {
  // An unregistered tag with an intact CRC is a snapshot from a newer
  // build: skip that entry, keep the rest.
  wire::Encoder unknown_body;
  unknown_body.Str("future.type.v9");
  unknown_body.Str("their-key");
  unknown_body.Str("\x01\x02\x03");
  std::string ub = unknown_body.Take();

  wire::Encoder known_body;
  known_body.Str("bool.v1");
  known_body.Str("our-key");
  known_body.Str("\x01");
  std::string kb = known_body.Take();

  wire::Encoder enc;
  enc.Raw("VQDRSNAP");
  enc.U32(memo::kSnapshotVersion);
  enc.U64(2);
  enc.U32(static_cast<std::uint32_t>(ub.size()));
  enc.Raw(ub);
  enc.U32(memo::SnapshotCrc32(ub));
  enc.U32(static_cast<std::uint32_t>(kb.size()));
  enc.Raw(kb);
  enc.U32(memo::SnapshotCrc32(kb));

  memo::Store store(16);
  memo::SnapshotIoStats stats =
      memo::DeserializeSnapshot(enc.Take(), store);
  EXPECT_FALSE(stats.corrupt) << stats.error;
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.skipped, 1u);
  auto hit = store.Get<bool>("our-key");
  ASSERT_NE(hit, nullptr);
  EXPECT_TRUE(*hit);
}

TEST(SnapshotCorruption, ForgedEntryCountIsRejected) {
  wire::Encoder enc;
  enc.Raw("VQDRSNAP");
  enc.U32(memo::kSnapshotVersion);
  enc.U64(~std::uint64_t{0});  // claims 2^64-1 entries in a 20-byte file
  ExpectWholeFileReject(enc.Take(), "forged entry count");
}

// --- the file path ---------------------------------------------------------

TEST(SnapshotFile, SaveLoadRoundTripAndMissingFileIsCleanColdBoot) {
  std::string path = TempPath("roundtrip.bin");
  std::remove(path.c_str());

  memo::Store missing_target(16);
  memo::SnapshotIoStats miss = memo::LoadSnapshot(missing_target, path);
  EXPECT_FALSE(miss.corrupt);
  EXPECT_EQ(miss.entries, 0u);

  memo::Store store(16);
  store.Put<bool>("k", true);
  memo::SnapshotIoStats wstats;
  ASSERT_TRUE(memo::SaveSnapshot(store, path, &wstats).ok());
  EXPECT_EQ(wstats.entries, 1u);
  EXPECT_GT(wstats.bytes, 0u);
  EXPECT_TRUE(FileExists(path));
  EXPECT_FALSE(FileExists(path + ".tmp")) << "temp file must not survive";

  memo::Store fresh(16);
  memo::SnapshotIoStats rstats = memo::LoadSnapshot(fresh, path);
  EXPECT_FALSE(rstats.corrupt) << rstats.error;
  EXPECT_EQ(rstats.entries, 1u);
  ASSERT_NE(fresh.Get<bool>("k"), nullptr);

  // Overwrite is atomic-rename, not append: a second save with more
  // entries fully replaces the image.
  store.Put<bool>("k2", false);
  ASSERT_TRUE(memo::SaveSnapshot(store, path).ok());
  memo::Store fresh2(16);
  EXPECT_EQ(memo::LoadSnapshot(fresh2, path).entries, 2u);
  std::remove(path.c_str());
}

TEST(SnapshotFile, SaveIntoMissingDirectoryFailsCleanly) {
  memo::Store store(16);
  store.Put<bool>("k", true);
  Status s = memo::SaveSnapshot(store, TempPath("no/such/dir/snap.bin"));
  EXPECT_FALSE(s.ok());
}

TEST(SnapshotFile, CorruptFileOnDiskColdBootsCleanly) {
  std::string path = TempPath("corrupt.bin");
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fputs("not a snapshot at all", f);
  std::fclose(f);

  memo::Store store(16);
  memo::SnapshotIoStats stats = memo::LoadSnapshot(store, path);
  EXPECT_TRUE(stats.corrupt);
  EXPECT_EQ(store.size(), 0u);
  std::remove(path.c_str());
}

TEST(SnapshotFile, LoadSnapshotFromEnvUsesTheVariable) {
  std::string path = TempPath("env.bin");
  memo::Store source(16);
  source.Put<bool>("env-key", true);
  ASSERT_TRUE(memo::SaveSnapshot(source, path).ok());

  ::setenv("VQDR_MEMO_SNAPSHOT", path.c_str(), 1);
  memo::Store target(16);
  EXPECT_TRUE(memo::LoadSnapshotFromEnv(target));
  EXPECT_NE(target.Get<bool>("env-key"), nullptr);
  ::unsetenv("VQDR_MEMO_SNAPSHOT");

  memo::Store untouched(16);
  EXPECT_FALSE(memo::LoadSnapshotFromEnv(untouched));
  EXPECT_EQ(untouched.size(), 0u);
  std::remove(path.c_str());
}

// --- the background flusher ------------------------------------------------

TEST(SnapshotFlusher, ManualFlushWritesAndCleanSkipsWhenUnchanged) {
  std::string path = TempPath("flusher_manual.bin");
  std::remove(path.c_str());
  memo::Store store(16);
  memo::SnapshotFlusher flusher(store, path, /*interval_ms=*/0);

  store.Put<bool>("k", true);
  memo::SnapshotIoStats stats;
  ASSERT_TRUE(flusher.FlushNow(&stats).ok());
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_TRUE(FileExists(path));

  // Stop with final_flush: nothing changed, so the final write may be a
  // clean skip — either way the file stays valid.
  flusher.Stop(/*final_flush=*/true);
  memo::Store fresh(16);
  EXPECT_EQ(memo::LoadSnapshot(fresh, path).entries, 1u);
  std::remove(path.c_str());
}

TEST(SnapshotFlusher, PeriodicFlushPicksUpNewEntries) {
  std::string path = TempPath("flusher_periodic.bin");
  std::remove(path.c_str());
  memo::Store store(16);
  {
    memo::SnapshotFlusher flusher(store, path, /*interval_ms=*/10);
    store.Put<bool>("k", true);
    // Wait (bounded) for a background flush to land.
    for (int i = 0; i < 300 && !FileExists(path); ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    EXPECT_TRUE(FileExists(path));
  }  // destructor: stop + final flush
  memo::Store fresh(16);
  memo::SnapshotIoStats stats = memo::LoadSnapshot(fresh, path);
  EXPECT_FALSE(stats.corrupt) << stats.error;
  EXPECT_EQ(stats.entries, 1u);
  std::remove(path.c_str());
}

// tsan coverage: writers install entries while the flusher serializes and
// a reader loads the written file — no torn state, every written image is
// structurally valid.
TEST(SnapshotFlusher, ConcurrentInstallsAndFlushesStayConsistent) {
  std::string path = TempPath("flusher_concurrent.bin");
  std::remove(path.c_str());
  memo::Store store(2048);
  memo::SnapshotFlusher flusher(store, path, /*interval_ms=*/1);

  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < 3; ++t) {
    writers.emplace_back([&store, &stop, t] {
      for (int i = 0; !stop.load(std::memory_order_relaxed) && i < 400;
           ++i) {
        store.Put<bool>("w" + std::to_string(t) + "-" + std::to_string(i),
                        (i & 1) != 0);
      }
    });
  }
  // Meanwhile, every image that appears on disk must load cleanly.
  for (int round = 0; round < 20; ++round) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    if (!FileExists(path)) continue;
    memo::Store probe(2048);
    memo::SnapshotIoStats stats = memo::LoadSnapshot(probe, path);
    EXPECT_FALSE(stats.corrupt) << stats.error;
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& w : writers) w.join();
  flusher.Stop(/*final_flush=*/true);

  memo::Store final_probe(2048);
  memo::SnapshotIoStats stats = memo::LoadSnapshot(final_probe, path);
  EXPECT_FALSE(stats.corrupt) << stats.error;
  EXPECT_EQ(stats.entries, 3u * 400u)
      << "final flush runs after all writers joined";
  std::remove(path.c_str());
}

// --- observability ---------------------------------------------------------

TEST(SnapshotActivity, CountersAdvanceAndRenderInReportFormat) {
  memo::SnapshotActivity before = memo::GlobalSnapshotActivity();

  memo::Store store(16);
  store.Put<bool>("k", true);
  std::string path = TempPath("activity.bin");
  ASSERT_TRUE(memo::SaveSnapshot(store, path).ok());
  memo::Store fresh(16);
  ASSERT_FALSE(memo::LoadSnapshot(fresh, path).corrupt);
  memo::Store reject(16);
  memo::DeserializeSnapshot("garbage-image", reject);

  memo::SnapshotActivity after = memo::GlobalSnapshotActivity();
  EXPECT_GE(after.flushes, before.flushes + 1);
  EXPECT_GE(after.flushed_entries, before.flushed_entries + 1);
  EXPECT_GE(after.loads, before.loads + 1);
  EXPECT_GE(after.loaded_entries, before.loaded_entries + 1);
  EXPECT_GE(after.corrupt, before.corrupt + 1);
  EXPECT_TRUE(after.any());

  memo::SnapshotActivity sample;
  sample.loads = 1;
  sample.loaded_entries = 12;
  sample.flushes = 3;
  sample.flushed_entries = 12;
  sample.clean_skips = 1;
  EXPECT_EQ(sample.ToString(),
            "loads=1/12 skipped=0 corrupt=0 flushes=3/12 clean_skips=1");
  EXPECT_FALSE(memo::SnapshotActivity{}.any());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace vqdr
