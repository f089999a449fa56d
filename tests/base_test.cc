// Tests for the base substrate: Status/StatusOr, Rng determinism, string
// utilities, the environment-switch parser, Value/NamePool/ValueFactory.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <limits>
#include <optional>
#include <set>

#include "base/env.h"
#include "base/rng.h"
#include "base/status.h"
#include "base/string_util.h"
#include "data/value.h"

namespace vqdr {
namespace {

TEST(StatusTest, OkAndError) {
  Status ok = Status::Ok();
  EXPECT_TRUE(ok.ok());
  EXPECT_TRUE(ok.message().empty());

  Status err = Status::Error("boom");
  EXPECT_FALSE(err.ok());
  EXPECT_EQ(err.message(), "boom");
}

TEST(StatusOrTest, HoldsValueOrStatus) {
  StatusOr<int> value = 42;
  ASSERT_TRUE(value.ok());
  EXPECT_EQ(value.value(), 42);
  EXPECT_EQ(*value, 42);

  StatusOr<int> error = Status::Error("nope");
  EXPECT_FALSE(error.ok());
  EXPECT_EQ(error.status().message(), "nope");
}

TEST(StatusOrTest, MoveOutValue) {
  StatusOr<std::string> s = std::string("hello");
  std::string moved = std::move(s).value();
  EXPECT_EQ(moved, "hello");
}

TEST(RngTest, DeterministicPerSeed) {
  Rng a(7), b(7), c(8);
  for (int i = 0; i < 10; ++i) {
    std::uint64_t va = a.Next();
    EXPECT_EQ(va, b.Next());
    // Different seeds diverge almost surely.
  }
  EXPECT_NE(Rng(7).Next(), c.Next());
}

TEST(RngTest, BelowAndRangeBounds) {
  Rng rng(123);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.Below(7), 7u);
    std::int64_t r = rng.Range(-3, 3);
    EXPECT_GE(r, -3);
    EXPECT_LE(r, 3);
  }
}

TEST(RngTest, ChanceIsRoughlyCalibrated) {
  Rng rng(99);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) {
    if (rng.Chance(1, 4)) ++hits;
  }
  EXPECT_GT(hits, 2000);
  EXPECT_LT(hits, 3000);
}

TEST(StringUtilTest, Split) {
  auto pieces = Split("a,b,,c", ',');
  ASSERT_EQ(pieces.size(), 4u);
  EXPECT_EQ(pieces[0], "a");
  EXPECT_EQ(pieces[2], "");
  EXPECT_EQ(Split("", ';').size(), 1u);
}

TEST(StringUtilTest, StripWhitespace) {
  EXPECT_EQ(StripWhitespace("  x y \t\n"), "x y");
  EXPECT_EQ(StripWhitespace(""), "");
  EXPECT_EQ(StripWhitespace(" \t "), "");
}

TEST(StringUtilTest, StartsWithAndJoin) {
  EXPECT_TRUE(StartsWith("schema E/2", "schema "));
  EXPECT_FALSE(StartsWith("sch", "schema"));
  std::vector<std::string> parts{"a", "b", "c"};
  EXPECT_EQ(Join(parts, ", "), "a, b, c");
  EXPECT_EQ(Join(std::vector<std::string>{}, ","), "");
}

// Every numeric VQDR_* switch goes through ParseEnvUint, so a sign must not
// wrap ("-1" would read as 2^64-1 through strtoull) and an out-of-range
// value must be refused rather than clamped to ULLONG_MAX.
TEST(EnvTest, ParseEnvUintAcceptsOnlyPlainDecimalsUpToMax) {
  constexpr std::uint64_t kU64Max = std::numeric_limits<std::uint64_t>::max();
  EXPECT_EQ(ParseEnvUint("0", 10), 0u);
  EXPECT_EQ(ParseEnvUint("7", 10), 7u);
  EXPECT_EQ(ParseEnvUint("10", 10), 10u);
  EXPECT_EQ(ParseEnvUint("11", 10), std::nullopt);
  EXPECT_EQ(ParseEnvUint("18446744073709551615", kU64Max), kU64Max);
  EXPECT_EQ(ParseEnvUint("18446744073709551616", kU64Max), std::nullopt);
  EXPECT_EQ(ParseEnvUint("99999999999999999999999", kU64Max), std::nullopt);
  for (const char* bad : {"", "-1", "-0", "+1", " 1", "1 ", "1x", "0x10"}) {
    EXPECT_EQ(ParseEnvUint(bad, kU64Max), std::nullopt) << "'" << bad << "'";
  }
  EXPECT_EQ(ParseEnvUint(nullptr, kU64Max), std::nullopt);
}

// kMaxWaitMs is the bound on period switches: as steady_clock ticks it stays
// positive, and a deadline that far past now() does not wrap.
TEST(EnvTest, MaxWaitFitsASteadyClockDeadline) {
  auto ticks = std::chrono::duration_cast<std::chrono::steady_clock::duration>(
      std::chrono::milliseconds(kMaxWaitMs));
  EXPECT_GT(ticks.count(), 0);
  auto now = std::chrono::steady_clock::now();
  EXPECT_GT(now + ticks, now);
  // Generous: more than a century.
  EXPECT_GT(kMaxWaitMs, 100ull * 365 * 24 * 3600 * 1000);
}

TEST(NamePoolTest, InternIsIdempotent) {
  NamePool pool;
  Value a1 = pool.Intern("alice");
  Value a2 = pool.Intern("alice");
  Value b = pool.Intern("bob");
  EXPECT_EQ(a1, a2);
  EXPECT_NE(a1, b);
  EXPECT_EQ(pool.NameOf(a1), "alice");
  EXPECT_EQ(pool.NameOf(Value(999)), "#999");
  EXPECT_EQ(pool.MaxId(), b.id);
}

TEST(StatusTest, NamedConstructorsCarryCodes) {
  EXPECT_EQ(Status::InvalidArgument("bad").code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(Status::ResourceExhausted("out").code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(Status::Cancelled("stop").code(), StatusCode::kCancelled);
  EXPECT_EQ(Status::Internal("broke").code(), StatusCode::kInternal);
  EXPECT_EQ(Status::Error("plain").code(), StatusCode::kUnknown);
  EXPECT_EQ(Status::Ok().code(), StatusCode::kOk);
  for (Status s : {Status::InvalidArgument("a"), Status::ResourceExhausted("b"),
                   Status::Cancelled("c"), Status::Internal("d")}) {
    EXPECT_FALSE(s.ok());
  }
}

TEST(StatusTest, ErrorWithOkCodeIsCoercedToUnknown) {
  // An "error" cannot claim to be OK; the constructor rejects the lie.
  Status s = Status::Error("oops", StatusCode::kOk);
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kUnknown);
}

TEST(StatusTest, CodeNamesAreStable) {
  EXPECT_STREQ(StatusCodeName(StatusCode::kOk), "OK");
  EXPECT_STREQ(StatusCodeName(StatusCode::kInvalidArgument),
               "INVALID_ARGUMENT");
  EXPECT_STREQ(StatusCodeName(StatusCode::kResourceExhausted),
               "RESOURCE_EXHAUSTED");
  EXPECT_STREQ(StatusCodeName(StatusCode::kCancelled), "CANCELLED");
  EXPECT_STREQ(StatusCodeName(StatusCode::kInternal), "INTERNAL");
  EXPECT_STREQ(StatusCodeName(StatusCode::kUnknown), "UNKNOWN");
}

TEST(ValueFactoryTest, FreshNeverCollides) {
  ValueFactory factory;
  factory.NoteUsed(Value(10));
  std::set<Value> seen{Value(10)};
  for (int i = 0; i < 100; ++i) {
    Value v = factory.Fresh();
    EXPECT_TRUE(seen.insert(v).second);
    EXPECT_GT(v.id, 10);
  }
  // Noting a used value mid-stream raises the floor.
  factory.NoteUsed(Value(10'000));
  EXPECT_GT(factory.Fresh().id, 10'000);
}

}  // namespace
}  // namespace vqdr
