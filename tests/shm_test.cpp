// bf::shm: segments (single-copy data plane) and the node namespace.
//
// Every Segment case runs twice: on a segment that holds bytes (functional
// board) and on a size-only one (timing-only board). Timing, accounting and
// refusals must not depend on the mode; only the bytes do.
#include <gtest/gtest.h>

#include "shm/namespace.h"
#include "shm/segment.h"

namespace bf::shm {
namespace {

sim::CopyModel copy_model() { return sim::CopyModel(13.0 * 1024 * 1024 * 1024); }

vt::Duration copy_time(std::uint64_t size) {
  return copy_model().copy_time(size);
}

class SegmentModes : public ::testing::TestWithParam<bool> {
 protected:
  [[nodiscard]] bool has_contents() const { return GetParam(); }
  // What a fetch of `staged` yields: the bytes, or a timing-only board's
  // zeros.
  [[nodiscard]] Bytes fetched(const Bytes& staged) const {
    return has_contents() ? staged : Bytes(staged.size());
  }
};

INSTANTIATE_TEST_SUITE_P(Segment, SegmentModes, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "Bytes" : "SizeOnly";
                         });

TEST_P(SegmentModes, StageViewFetchRoundtrip) {
  Segment segment(copy_model(), 1 << 20, has_contents());
  EXPECT_EQ(segment.has_contents(), has_contents());
  vt::Cursor cursor;
  Bytes data(64 * 1024, 0);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::uint8_t>(i);
  }
  auto slot = segment.stage(ByteSpan{data}, cursor);
  ASSERT_TRUE(slot.ok());
  EXPECT_EQ(cursor.now().ns(), copy_time(data.size()).ns());
  EXPECT_EQ(segment.used(), data.size());

  auto view = segment.view(slot.value());
  if (has_contents()) {
    ASSERT_TRUE(view.ok());
    EXPECT_TRUE(std::equal(data.begin(), data.end(), view.value().begin()));
  } else {
    // No bytes to read: nothing may pretend otherwise.
    EXPECT_EQ(view.status().code(), StatusCode::kFailedPrecondition);
    EXPECT_EQ(segment.writable_view(slot.value()).status().code(),
              StatusCode::kFailedPrecondition);
  }

  Bytes out(data.size(), 0xFF);
  ASSERT_TRUE(segment.fetch(slot.value(), MutableByteSpan{out}, cursor).ok());
  EXPECT_EQ(out, fetched(data));
  EXPECT_EQ(cursor.now().ns(), 2 * copy_time(data.size()).ns());
  // fetch released the slot
  EXPECT_EQ(segment.slot_count(), 0u);
  EXPECT_EQ(segment.used(), 0u);
}

TEST_P(SegmentModes, OwnedStageMovesFromCallerAndChargesTheCopy) {
  Segment segment(copy_model(), 1 << 20, has_contents());
  vt::Cursor cursor;
  Bytes data(4096, 0x7E);
  const Bytes expected = data;
  auto slot = segment.stage(std::move(data), cursor);
  ASSERT_TRUE(slot.ok());
  EXPECT_TRUE(data.empty());  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(cursor.now().ns(), copy_time(expected.size()).ns());
  EXPECT_EQ(segment.used(), expected.size());
  auto taken = segment.fetch_take(slot.value(), cursor);
  ASSERT_TRUE(taken.ok());
  EXPECT_EQ(taken.value(), fetched(expected));
  EXPECT_EQ(cursor.now().ns(), 2 * copy_time(expected.size()).ns());
  EXPECT_EQ(segment.copy_count(), 2u);
  EXPECT_EQ(segment.total_bytes_copied(), 2 * expected.size());
  EXPECT_EQ(segment.used(), 0u);
}

TEST_P(SegmentModes, CopyTimeProportionalToSize) {
  Segment segment(copy_model(), 64 << 20, has_contents());
  vt::Cursor small_cursor;
  vt::Cursor large_cursor;
  Bytes small(1 << 10);
  Bytes large(1 << 20);
  (void)segment.stage(ByteSpan{small}, small_cursor);
  (void)segment.stage(ByteSpan{large}, large_cursor);
  EXPECT_NEAR(static_cast<double>(large_cursor.now().ns()) /
                  static_cast<double>(small_cursor.now().ns()),
              1024.0, 10.0);  // integer-ns rounding on the small copy
}

TEST_P(SegmentModes, FetchSizeMismatchRejected) {
  Segment segment(copy_model(), 1 << 20, has_contents());
  vt::Cursor cursor;
  Bytes data(16);
  auto slot = segment.stage(ByteSpan{data}, cursor);
  ASSERT_TRUE(slot.ok());
  Bytes wrong(8);
  EXPECT_EQ(segment.fetch(slot.value(), MutableByteSpan{wrong}, cursor).code(),
            StatusCode::kInvalidArgument);
  // Slot still alive after the failed fetch, and nothing was charged.
  EXPECT_EQ(segment.slot_count(), 1u);
  EXPECT_EQ(segment.used(), data.size());
  EXPECT_EQ(segment.copy_count(), 1u);
  EXPECT_EQ(cursor.now().ns(), copy_time(data.size()).ns());
}

TEST_P(SegmentModes, CapacityEnforced) {
  Segment segment(copy_model(), 100, has_contents());
  vt::Cursor cursor;
  Bytes data(80);
  auto first = segment.stage(ByteSpan{data}, cursor);
  ASSERT_TRUE(first.ok());
  auto second = segment.stage(ByteSpan{data}, cursor);
  EXPECT_EQ(second.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(segment.allocate(80).status().code(),
            StatusCode::kResourceExhausted);
  // A refused owned stage leaves the caller's buffer untouched.
  Bytes owned(80, 0x11);
  EXPECT_EQ(segment.stage(std::move(owned), cursor).status().code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(owned, Bytes(80, 0x11));  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(segment.used(), 80u);
  EXPECT_EQ(segment.copy_count(), 1u);
  EXPECT_EQ(cursor.now().ns(), copy_time(80).ns());
  auto released = segment.release(first.value());
  ASSERT_TRUE(released.ok());
  EXPECT_EQ(released.value(), 80u);
  EXPECT_EQ(segment.used(), 0u);
  EXPECT_TRUE(segment.stage(ByteSpan{data}, cursor).ok());
}

TEST_P(SegmentModes, ManagerSideAllocateAndFetch) {
  Segment segment(copy_model(), 1 << 20, has_contents());
  auto slot = segment.allocate(4);
  ASSERT_TRUE(slot.ok());
  EXPECT_EQ(segment.used(), 4u);
  Bytes expected(4);
  if (has_contents()) {
    auto view = segment.writable_view(slot.value());
    ASSERT_TRUE(view.ok());
    std::fill(view.value().begin(), view.value().end(), std::uint8_t{42});
    expected = Bytes(4, 42);
  }
  vt::Cursor cursor;
  Bytes out(4, 0xFF);
  ASSERT_TRUE(segment.fetch(slot.value(), MutableByteSpan{out}, cursor).ok());
  EXPECT_EQ(out, expected);
  EXPECT_EQ(cursor.now().ns(), copy_time(4).ns());
  // The manager's allocation is not a modeled copy; the fetch is.
  EXPECT_EQ(segment.copy_count(), 1u);
  EXPECT_EQ(segment.total_bytes_copied(), 4u);
}

TEST_P(SegmentModes, CountsCopies) {
  Segment segment(copy_model(), 1 << 20, has_contents());
  vt::Cursor cursor;
  Bytes data(100);
  auto slot = segment.stage(ByteSpan{data}, cursor);
  ASSERT_TRUE(slot.ok());
  Bytes out(100);
  ASSERT_TRUE(segment.fetch(slot.value(), MutableByteSpan{out}, cursor).ok());
  EXPECT_EQ(segment.copy_count(), 2u);  // one in, one out
  EXPECT_EQ(segment.total_bytes_copied(), 200u);
}

TEST_P(SegmentModes, ZeroSizeSlotRejected) {
  Segment segment(copy_model(), 1 << 20, has_contents());
  vt::Cursor cursor;
  EXPECT_EQ(segment.allocate(0).status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(segment.stage(ByteSpan{}, cursor).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(segment.stage(Bytes{}, cursor).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(segment.used(), 0u);
  EXPECT_EQ(segment.copy_count(), 0u);
  EXPECT_EQ(cursor.now().ns(), 0);
}

TEST(Namespace, CreateOpenUnlink) {
  Namespace ns;
  auto created = ns.create("devmgr-b:sess:1", copy_model(), 1 << 20);
  ASSERT_TRUE(created.ok());
  EXPECT_TRUE(created.value()->has_contents());
  EXPECT_EQ(ns.segment_count(), 1u);

  auto opened = ns.open("devmgr-b:sess:1");
  ASSERT_TRUE(opened.ok());
  EXPECT_EQ(opened.value().get(), created.value().get());  // same mapping

  EXPECT_FALSE(ns.create("devmgr-b:sess:1", copy_model(), 1).ok());
  ASSERT_TRUE(ns.unlink("devmgr-b:sess:1").ok());
  EXPECT_FALSE(ns.open("devmgr-b:sess:1").ok());
  EXPECT_FALSE(ns.unlink("devmgr-b:sess:1").ok());
}

TEST(Namespace, CreatesSizeOnlySegmentForTimingOnlyBoard) {
  Namespace ns;
  auto created = ns.create("seg", copy_model(), 1 << 20,
                           /*has_contents=*/false);
  ASSERT_TRUE(created.ok());
  EXPECT_FALSE(created.value()->has_contents());
}

TEST(Namespace, SegmentSurvivesUnlinkWhileHeld) {
  // POSIX shm semantics: unlink removes the name, the mapping lives while
  // a handle is held.
  Namespace ns;
  auto created = ns.create("seg", copy_model(), 1 << 20);
  ASSERT_TRUE(created.ok());
  auto handle = created.value();
  ASSERT_TRUE(ns.unlink("seg").ok());
  vt::Cursor cursor;
  Bytes data(10);
  EXPECT_TRUE(handle->stage(ByteSpan{data}, cursor).ok());
}

}  // namespace
}  // namespace bf::shm
