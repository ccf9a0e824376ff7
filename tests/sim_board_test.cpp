// bf::sim::Board: exclusive timeline, busy accounting, reconfiguration and
// the bitstream library.
#include <gtest/gtest.h>

#include "sim/bitstream.h"
#include "sim/board.h"

namespace bf::sim {
namespace {

BoardConfig small_board(bool functional = true) {
  BoardConfig config;
  config.id = "fpga-t";
  config.node = "B";
  config.host = make_node_b();
  config.memory_bytes = 64 * kMiB;
  config.functional = functional;
  return config;
}

const Bitstream& vadd_bitstream() {
  return *BitstreamLibrary::standard().find(BitstreamLibrary::kVadd);
}

// ---- BitstreamLibrary -------------------------------------------------------

TEST(BitstreamLibrary, ContainsThePaperAccelerators) {
  const auto& library = BitstreamLibrary::standard();
  ASSERT_NE(library.find(BitstreamLibrary::kSobel), nullptr);
  ASSERT_NE(library.find(BitstreamLibrary::kMatMul), nullptr);
  ASSERT_NE(library.find(BitstreamLibrary::kAlexNet), nullptr);
  EXPECT_EQ(library.find("bogus"), nullptr);
  EXPECT_FALSE(library.get("bogus").has_value());

  const Bitstream* alexnet = library.find(BitstreamLibrary::kAlexNet);
  EXPECT_EQ(alexnet->accelerator, "pipecnn_alexnet");
  EXPECT_TRUE(alexnet->has_kernel("conv"));
  EXPECT_TRUE(alexnet->has_kernel("pool"));
  EXPECT_FALSE(alexnet->has_kernel("sobel"));
}

TEST(BitstreamLibrary, ReconfigurationTimeGrowsWithSize) {
  const auto& library = BitstreamLibrary::standard();
  const auto small = library.find(BitstreamLibrary::kVadd);
  const auto large = library.find(BitstreamLibrary::kAlexNet);
  EXPECT_LT(small->reconfiguration_time().ns(),
            large->reconfiguration_time().ns());
  // Order of seconds, like a real full-device Arria-10 program.
  EXPECT_GT(small->reconfiguration_time().sec(), 0.5);
  EXPECT_LT(large->reconfiguration_time().sec(), 5.0);
}

// ---- Board ---------------------------------------------------------------------

TEST(Board, StartsUnconfigured) {
  Board board(small_board());
  EXPECT_FALSE(board.bitstream().has_value());
  EXPECT_FALSE(board.has_kernel("vadd"));
  KernelLaunch launch;
  launch.kernel = "vadd";
  EXPECT_EQ(board.run_kernel(launch, vt::Time::zero()).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(Board, ConfigureLoadsKernelsAndWipesMemory) {
  Board board(small_board());
  auto handle = board.allocate(1024);
  ASSERT_TRUE(handle.ok());
  auto interval = board.configure(vadd_bitstream(), vt::Time::zero());
  ASSERT_TRUE(interval.ok());
  EXPECT_TRUE(board.has_kernel("vadd"));
  EXPECT_EQ(board.memory_used(), 0u);  // DDR wiped
  Bytes out(4);
  EXPECT_FALSE(board.read(handle.value(), 0, MutableByteSpan{out},
                          vt::Time::zero())
                   .ok());
  EXPECT_EQ(board.reconfiguration_count(), 1u);
}

TEST(Board, TimelineSerializesOverlappingWork) {
  Board board(small_board());
  ASSERT_TRUE(board.configure(vadd_bitstream(), vt::Time::zero()).ok());
  auto buffer = board.allocate(8 * kMiB);
  ASSERT_TRUE(buffer.ok());
  Bytes data(8 * kMiB, 1);
  // Two writes both "ready" at the same instant: the second must start when
  // the first ends.
  const vt::Time ready = board.busy_until();
  auto first = board.write(buffer.value(), 0, ByteSpan{data}, ready);
  auto second = board.write(buffer.value(), 0, ByteSpan{data}, ready);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second.value().start, first.value().end);
  EXPECT_GT(second.value().end, second.value().start);
}

TEST(Board, ReadyAfterBusyStartsAtReady) {
  Board board(small_board());
  ASSERT_TRUE(board.configure(vadd_bitstream(), vt::Time::zero()).ok());
  auto buffer = board.allocate(1024);
  ASSERT_TRUE(buffer.ok());
  Bytes data(1024);
  const vt::Time late = board.busy_until() + vt::Duration::seconds(5);
  auto interval = board.write(buffer.value(), 0, ByteSpan{data}, late);
  ASSERT_TRUE(interval.ok());
  EXPECT_EQ(interval.value().start, late);
}

TEST(Board, BusyAccountingExcludesReconfiguration) {
  Board board(small_board());
  auto interval = board.configure(vadd_bitstream(), vt::Time::zero());
  ASSERT_TRUE(interval.ok());
  // Programming occupies the timeline but does not count as utilization
  // ("time spent computing OpenCL calls", paper definition).
  EXPECT_EQ(board.busy_total().ns(), 0);
  EXPECT_GT(board.busy_until(), vt::Time::zero());

  auto buffer = board.allocate(kMiB);
  ASSERT_TRUE(buffer.ok());
  Bytes data(kMiB);
  auto write = board.write(buffer.value(), 0, ByteSpan{data},
                           board.busy_until());
  ASSERT_TRUE(write.ok());
  EXPECT_EQ(board.busy_total().ns(), write.value().duration().ns());
}

TEST(Board, BusyBetweenClipsToWindow) {
  Board board(small_board());
  ASSERT_TRUE(board.configure(vadd_bitstream(), vt::Time::zero()).ok());
  auto buffer = board.allocate(kMiB);
  ASSERT_TRUE(buffer.ok());
  Bytes data(kMiB);
  auto interval =
      board.write(buffer.value(), 0, ByteSpan{data}, board.busy_until());
  ASSERT_TRUE(interval.ok());
  const vt::Time mid = interval.value().start +
                       vt::Duration::nanos(interval.value().duration().ns() / 2);
  EXPECT_NEAR(board.busy_between(interval.value().start, mid).ns(),
              interval.value().duration().ns() / 2, 2);
  EXPECT_EQ(board.busy_between(interval.value().end,
                               interval.value().end + vt::Duration::seconds(1))
                .ns(),
            0);
}

TEST(Board, KernelRequiresConfiguredBitstream) {
  Board board(small_board());
  ASSERT_TRUE(board.configure(vadd_bitstream(), vt::Time::zero()).ok());
  KernelLaunch launch;
  launch.kernel = "sobel";  // not in the vadd bitstream
  EXPECT_EQ(board.run_kernel(launch, board.busy_until()).status().code(),
            StatusCode::kNotFound);
}

TEST(Board, TimingOnlyModeSkipsDataButChecksBounds) {
  Board board(small_board(/*functional=*/false));
  ASSERT_TRUE(board.configure(vadd_bitstream(), vt::Time::zero()).ok());
  auto buffer = board.allocate(1024);
  ASSERT_TRUE(buffer.ok());
  Bytes data(512, 0xAA);
  auto written =
      board.write(buffer.value(), 0, ByteSpan{data}, board.busy_until());
  ASSERT_TRUE(written.ok());
  Bytes out(512, 0xFF);
  ASSERT_TRUE(board.read(buffer.value(), 0, MutableByteSpan{out},
                         board.busy_until())
                  .ok());
  for (std::uint8_t byte : out) EXPECT_EQ(byte, 0);  // zeros, not data
  // The size-only transfer charges exactly what the byte-carrying write did.
  auto moved = board.transfer(buffer.value(), 0, 512, board.busy_until());
  ASSERT_TRUE(moved.ok());
  EXPECT_EQ(moved.value().duration(), written.value().duration());
  // Bounds still enforced.
  Bytes big(2048);
  EXPECT_FALSE(
      board.write(buffer.value(), 0, ByteSpan{big}, board.busy_until()).ok());
  EXPECT_EQ(board.transfer(buffer.value(), 512, 1024, board.busy_until())
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  // A functional board's memory must see the bytes: no size-only transfer.
  Board functional(small_board(/*functional=*/true));
  auto handle = functional.allocate(1024);
  ASSERT_TRUE(handle.ok());
  EXPECT_EQ(functional.transfer(handle.value(), 0, 512, vt::Time::zero())
                .status()
                .code(),
            StatusCode::kFailedPrecondition);
}

TEST(Board, TransferTimeDependsOnHostPcie) {
  BoardConfig gen2 = small_board();
  gen2.host = make_node_a();  // PCIe gen2
  Board slow(gen2);
  Board fast(small_board());  // node B, gen3
  ASSERT_TRUE(slow.configure(vadd_bitstream(), vt::Time::zero()).ok());
  ASSERT_TRUE(fast.configure(vadd_bitstream(), vt::Time::zero()).ok());
  auto slow_buffer = slow.allocate(8 * kMiB);
  auto fast_buffer = fast.allocate(8 * kMiB);
  Bytes data(8 * kMiB);
  auto slow_write =
      slow.write(slow_buffer.value(), 0, ByteSpan{data}, slow.busy_until());
  auto fast_write =
      fast.write(fast_buffer.value(), 0, ByteSpan{data}, fast.busy_until());
  EXPECT_GT(slow_write.value().duration().ns(),
            fast_write.value().duration().ns());
}

}  // namespace
}  // namespace bf::sim
