// bf::common: Status/Result, SampleStats, Rng, bytes, arena.
#include <gtest/gtest.h>

#include <set>

#include "common/arena.h"
#include "common/bytes.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/status.h"

namespace bf {
namespace {

// ---- Status -------------------------------------------------------------------

TEST(Status, DefaultIsOk) {
  Status status;
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kOk);
  EXPECT_EQ(status.to_string(), "OK");
}

TEST(Status, FactoriesCarryCodeAndMessage) {
  EXPECT_EQ(NotFound("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(InvalidArgument("x").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(Internal("x").code(), StatusCode::kInternal);
  EXPECT_EQ(Unavailable("x").code(), StatusCode::kUnavailable);
  EXPECT_EQ(ResourceExhausted("x").code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(FailedPrecondition("x").code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(AlreadyExists("x").code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(Aborted("boom").message(), "boom");
  EXPECT_EQ(NotFound("thing").to_string(), "NOT_FOUND: thing");
}

TEST(Status, CodeNamesAreDistinct) {
  std::set<std::string_view> names;
  for (int code = 0; code <= static_cast<int>(StatusCode::kDeadlineExceeded);
       ++code) {
    names.insert(to_string(static_cast<StatusCode>(code)));
  }
  EXPECT_EQ(names.size(),
            static_cast<std::size_t>(StatusCode::kDeadlineExceeded) + 1);
}

TEST(Result, HoldsValue) {
  Result<int> result(42);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value(), 42);
  EXPECT_EQ(result.value_or(7), 42);
}

TEST(Result, HoldsError) {
  Result<int> result(NotFound("nope"));
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(result.value_or(7), 7);
  EXPECT_THROW((void)result.value(), ContractViolation);
}

TEST(Result, OkStatusWithoutValueBecomesInternalError) {
  Result<int> result(Status::Ok());
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInternal);
}

TEST(BfCheck, ThrowsWithLocation) {
  try {
    BF_CHECK(1 == 2);
    FAIL() << "should have thrown";
  } catch (const ContractViolation& error) {
    EXPECT_NE(std::string(error.what()).find("1 == 2"), std::string::npos);
    EXPECT_NE(std::string(error.what()).find("common_test"),
              std::string::npos);
  }
}

// ---- SampleStats ----------------------------------------------------------------

TEST(SampleStats, BasicMoments) {
  SampleStats stats;
  for (double v : {1.0, 2.0, 3.0, 4.0}) stats.record(v);
  EXPECT_EQ(stats.count(), 4u);
  EXPECT_DOUBLE_EQ(stats.mean(), 2.5);
  EXPECT_DOUBLE_EQ(stats.min(), 1.0);
  EXPECT_DOUBLE_EQ(stats.max(), 4.0);
  EXPECT_DOUBLE_EQ(stats.sum(), 10.0);
  EXPECT_NEAR(stats.stddev(), 1.1180, 1e-3);
}

TEST(SampleStats, Percentiles) {
  SampleStats stats;
  for (int i = 1; i <= 100; ++i) stats.record(i);
  EXPECT_NEAR(stats.percentile(0.0), 1.0, 1e-9);
  EXPECT_NEAR(stats.percentile(1.0), 100.0, 1e-9);
  EXPECT_NEAR(stats.percentile(0.5), 50.5, 1e-9);
  EXPECT_NEAR(stats.percentile(0.95), 95.05, 0.1);
}

TEST(SampleStats, MergeAndClear) {
  SampleStats a;
  SampleStats b;
  a.record(1.0);
  b.record(3.0);
  a.merge(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_DOUBLE_EQ(a.mean(), 2.0);
  a.clear();
  EXPECT_TRUE(a.empty());
}

TEST(SampleStats, EmptyStatsThrowOnAccess) {
  SampleStats stats;
  EXPECT_THROW((void)stats.mean(), ContractViolation);
  EXPECT_THROW((void)stats.percentile(0.5), ContractViolation);
}

// ---- Rng ---------------------------------------------------------------------

TEST(Rng, DeterministicForSeed) {
  Rng a(7);
  Rng b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, DoubleInUnitInterval) {
  Rng rng(99);
  for (int i = 0; i < 1000; ++i) {
    const double value = rng.next_double();
    EXPECT_GE(value, 0.0);
    EXPECT_LT(value, 1.0);
  }
}

TEST(Rng, BoundedBelow) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.next_below(17), 17u);
  }
}

// ---- bytes ---------------------------------------------------------------------

TEST(Bytes, FingerprintDistinguishesContent) {
  Bytes a = {1, 2, 3};
  Bytes b = {1, 2, 4};
  EXPECT_NE(fingerprint(ByteSpan{a}), fingerprint(ByteSpan{b}));
  EXPECT_EQ(fingerprint(ByteSpan{a}), fingerprint(ByteSpan{a}));
}

TEST(Bytes, SpansWrapRawMemory) {
  std::uint32_t word = 0x01020304;
  ByteSpan span = as_bytes(&word, sizeof(word));
  EXPECT_EQ(span.size(), 4u);
  MutableByteSpan mutable_span = as_writable_bytes(&word, sizeof(word));
  mutable_span[0] = 0xFF;
  EXPECT_NE(word, 0x01020304u);
}

// ---- arena ---------------------------------------------------------------------

TEST(Arena, InlineSizedAcquiresAreNeitherHitsNorMisses) {
  // A request that fits Bytes' inline storage never touches the heap, so
  // counting it as a miss would understate the arena's hit rate.
  const arena::Stats before = arena::stats();
  Bytes small = arena::acquire(Bytes::kInlineCapacity);
  EXPECT_FALSE(small.is_heap());
  EXPECT_GE(small.capacity(), Bytes::kInlineCapacity);
  const arena::Stats after = arena::stats();
  EXPECT_EQ(after.misses, before.misses);
  EXPECT_EQ(after.hits, before.hits);
}

TEST(Arena, HeapBackedAcquiresCountOneHitOrMissEach) {
  const arena::Stats before = arena::stats();
  Bytes first = arena::acquire(Bytes::kInlineCapacity + 1);
  EXPECT_TRUE(first.is_heap());
  arena::recycle(std::move(first));
  Bytes second = arena::acquire(Bytes::kInlineCapacity + 1);
  EXPECT_TRUE(second.is_heap());
  const arena::Stats after = arena::stats();
  EXPECT_EQ((after.hits - before.hits) + (after.misses - before.misses), 2u);
  EXPECT_GE(after.hits - before.hits, 1u);  // the recycled buffer came back
}

}  // namespace
}  // namespace bf
