// Hot-path memory discipline (docs/PERFORMANCE.md): the per-request data
// plane must MOVE payloads end-to-end and recycle storage through the arena
// free lists, so a steady-state request stream makes no Bytes deep copies
// and no new Bytes heap allocations after warmup. The tests diff the
// process-wide Bytes instrumentation counters around a measured window.
#include <gtest/gtest.h>

#include <chrono>
#include <memory>

#include "common/arena.h"
#include "common/bytes.h"
#include "devmgr/device_manager.h"
#include "remote/remote_runtime.h"
#include "shm/namespace.h"
#include "shm/segment.h"
#include "sim/bitstream.h"
#include "sim/board.h"

namespace bf {
namespace {

// `functional` = false is a timing-only board, whose shm segments are
// size-only: the shm path then moves lengths, not bytes.
struct Rig {
  explicit Rig(bool with_shm, bool functional = true) {
    sim::BoardConfig bc;
    bc.id = "fpga-b";
    bc.node = "B";
    bc.host = sim::make_node_b();
    bc.memory_bytes = 64 * kMiB;
    bc.functional = functional;
    board = std::make_unique<sim::Board>(bc);
    devmgr::DeviceManagerConfig mc;
    mc.id = "devmgr-b";
    mc.allow_shared_memory = with_shm;
    mc.gate_stall_grace = std::chrono::milliseconds(50);
    manager = std::make_unique<devmgr::DeviceManager>(
        mc, board.get(), with_shm ? &node_shm : nullptr);
    remote::ManagerAddress address;
    address.endpoint = &manager->endpoint();
    address.transport = net::local_control(bc.host);
    address.node_shm = with_shm ? &node_shm : nullptr;
    runtime = std::make_unique<remote::RemoteRuntime>(
        std::vector<remote::ManagerAddress>{address});
  }

  shm::Namespace node_shm;
  std::unique_ptr<sim::Board> board;
  std::unique_ptr<devmgr::DeviceManager> manager;
  std::unique_ptr<remote::RemoteRuntime> runtime;
};

// One request: gRPC-path write -> kernel -> read -> finish, the Fig. 4b
// request shape. `payload` is moved in and handed back refilled so the
// caller's loop cycles one buffer.
void run_request(ocl::CommandQueue& queue, ocl::Kernel& kernel,
                 const ocl::Buffer& in, const ocl::Buffer& out, Bytes payload,
                 Bytes& read_back, Bytes& payload_out) {
  ASSERT_TRUE(
      queue.enqueue_write(in, 0, std::move(payload), /*blocking=*/false).ok());
  ASSERT_TRUE(queue.enqueue_kernel(kernel, ocl::NdRange{}).ok());
  ASSERT_TRUE(queue
                  .enqueue_read(out, 0, MutableByteSpan{read_back},
                                /*blocking=*/false)
                  .ok());
  ASSERT_TRUE(queue.finish().ok());
  // Refill from the arena like a well-behaved client: the buffer moved into
  // enqueue_write was recycled after serialization, so this is a pool hit.
  payload_out = arena::acquire(read_back.size());
  payload_out.resize_for_overwrite(read_back.size());
}

// The copy-counter conformance test: an op's payload travels client ->
// WriteData frame -> dispatcher decode -> Operation::inline_data ->
// board write without a single Bytes deep copy, and after warmup the
// arena recycling loop serves every buffer on the path (frames, decoded
// payloads, read staging) without new Bytes heap allocations.
TEST(HotPathDiscipline, GrpcRequestLoopMovesPayloadAndReusesArena) {
  Rig rig(/*with_shm=*/false);
  ocl::Session session("tenant");
  auto context = rig.runtime->create_context("fpga-b", session);
  ASSERT_TRUE(context.ok());
  ASSERT_TRUE(context.value()->program(sim::BitstreamLibrary::kVadd).ok());
  auto kernel = context.value()->create_kernel("vadd");
  ASSERT_TRUE(kernel.ok());
  constexpr std::size_t kPayload = 256 * 1024;
  auto in = context.value()->create_buffer(kPayload);
  auto out = context.value()->create_buffer(kPayload);
  ASSERT_TRUE(in.ok() && out.ok());
  kernel.value().set_arg(0, in.value());
  kernel.value().set_arg(1, in.value());
  kernel.value().set_arg(2, out.value());
  kernel.value().set_arg(3, std::int64_t{kPayload / 4});
  auto queue = context.value()->create_queue();
  ASSERT_TRUE(queue.ok());

  Bytes payload(kPayload, 0xAB);
  Bytes read_back(kPayload);
  for (int i = 0; i < 16; ++i) {  // warm the arena free lists
    Bytes next;
    run_request(*queue.value(), kernel.value(), in.value(), out.value(),
                std::move(payload), read_back, next);
    payload = std::move(next);
  }

  const std::uint64_t copies_before = Bytes::deep_copy_count();
  const std::uint64_t allocs_before = Bytes::heap_alloc_count();
  constexpr int kMeasured = 32;
  for (int i = 0; i < kMeasured; ++i) {
    Bytes next;
    run_request(*queue.value(), kernel.value(), in.value(), out.value(),
                std::move(payload), read_back, next);
    payload = std::move(next);
  }
  EXPECT_EQ(Bytes::deep_copy_count() - copies_before, 0u)
      << "a Bytes deep copy crept into the per-request path";
  EXPECT_EQ(Bytes::heap_alloc_count() - allocs_before, 0u)
      << "steady-state requests must be served from the arena free lists";
}

// The shm cases run on a functional board (segments hold bytes) and on a
// timing-only one (size-only segments).
class ShmHotPath : public ::testing::TestWithParam<bool> {
 protected:
  [[nodiscard]] bool functional() const { return GetParam(); }
};

INSTANTIATE_TEST_SUITE_P(HotPathDiscipline, ShmHotPath, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "Functional" : "TimingOnly";
                         });

// Same request stream over the shared-memory data path: the segment's
// spare cache plus the arena backstop must make the steady state
// allocation- and copy-free as well.
TEST_P(ShmHotPath, ShmRequestLoopIsAllocationFreeAfterWarmup) {
  Rig rig(/*with_shm=*/true, functional());
  ocl::Session session("tenant");
  auto context = rig.runtime->create_context("fpga-b", session);
  ASSERT_TRUE(context.ok());
  ASSERT_TRUE(context.value()->program(sim::BitstreamLibrary::kVadd).ok());
  auto kernel = context.value()->create_kernel("vadd");
  ASSERT_TRUE(kernel.ok());
  constexpr std::size_t kPayload = 256 * 1024;
  auto in = context.value()->create_buffer(kPayload);
  auto out = context.value()->create_buffer(kPayload);
  ASSERT_TRUE(in.ok() && out.ok());
  kernel.value().set_arg(0, in.value());
  kernel.value().set_arg(1, in.value());
  kernel.value().set_arg(2, out.value());
  kernel.value().set_arg(3, std::int64_t{kPayload / 4});
  auto queue = context.value()->create_queue();
  ASSERT_TRUE(queue.ok());

  Bytes payload(kPayload, 0xCD);
  Bytes read_back(kPayload);
  for (int i = 0; i < 16; ++i) {
    Bytes next;
    run_request(*queue.value(), kernel.value(), in.value(), out.value(),
                std::move(payload), read_back, next);
    payload = std::move(next);
  }

  const std::uint64_t copies_before = Bytes::deep_copy_count();
  const std::uint64_t allocs_before = Bytes::heap_alloc_count();
  for (int i = 0; i < 32; ++i) {
    Bytes next;
    run_request(*queue.value(), kernel.value(), in.value(), out.value(),
                std::move(payload), read_back, next);
    payload = std::move(next);
  }
  EXPECT_EQ(Bytes::deep_copy_count() - copies_before, 0u)
      << "a Bytes deep copy crept into the per-request path";
  EXPECT_EQ(Bytes::heap_alloc_count() - allocs_before, 0u);
}

// Segment-level regression: the stage(Bytes&&) -> fetch_take cycle and the
// allocate -> release read-slot loop both reuse storage (spare cache or
// arena) instead of allocating per iteration.
TEST_P(ShmHotPath, SegmentSteadyStateStageFetchTakeIsAllocationFree) {
  shm::Segment segment(sim::CopyModel(13.0 * 1024 * 1024 * 1024), 64 << 20,
                       functional());
  vt::Cursor cursor;
  Bytes buffer(512 * 1024, 0x5A);
  for (int i = 0; i < 8; ++i) {  // warmup
    auto slot = segment.stage(std::move(buffer), cursor);
    ASSERT_TRUE(slot.ok());
    auto taken = segment.fetch_take(slot.value(), cursor);
    ASSERT_TRUE(taken.ok());
    buffer = std::move(taken.value());
  }
  const std::uint64_t allocs_before = Bytes::heap_alloc_count();
  for (int i = 0; i < 64; ++i) {
    auto slot = segment.stage(std::move(buffer), cursor);
    ASSERT_TRUE(slot.ok());
    auto taken = segment.fetch_take(slot.value(), cursor);
    ASSERT_TRUE(taken.ok());
    buffer = std::move(taken.value());
  }
  EXPECT_EQ(Bytes::heap_alloc_count() - allocs_before, 0u);
}

TEST_P(ShmHotPath, SegmentReadSlotLoopReusesSpares) {
  shm::Segment segment(sim::CopyModel(13.0 * 1024 * 1024 * 1024), 64 << 20,
                       functional());
  vt::Cursor cursor;
  Bytes out(256 * 1024);
  for (int i = 0; i < 8; ++i) {  // warm the spare cache
    auto slot = segment.allocate(out.size());
    ASSERT_TRUE(slot.ok());
    ASSERT_TRUE(segment.fetch(slot.value(), MutableByteSpan{out}, cursor).ok());
  }
  const std::uint64_t allocs_before = Bytes::heap_alloc_count();
  for (int i = 0; i < 64; ++i) {
    auto slot = segment.allocate(out.size());
    ASSERT_TRUE(slot.ok());
    ASSERT_TRUE(segment.fetch(slot.value(), MutableByteSpan{out}, cursor).ok());
  }
  EXPECT_EQ(Bytes::heap_alloc_count() - allocs_before, 0u);
}

}  // namespace
}  // namespace bf
