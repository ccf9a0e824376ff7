// Remote OpenCL Library <-> Device Manager integration: the paper's core
// sharing path, including both data planes (gRPC and shared memory) and the
// transparency property (the same host code as the native tests).
#include <gtest/gtest.h>

#include <chrono>
#include <numeric>
#include <thread>
#include <vector>

#include "devmgr/device_manager.h"
#include "native/native_runtime.h"
#include "remote/remote_runtime.h"
#include "sim/bitstream.h"
#include "sim/board.h"
#include "shm/namespace.h"

namespace bf {
namespace {

struct Rig {
  explicit Rig(bool with_shm, bool functional = true) {
    sim::BoardConfig bc;
    bc.id = "fpga-b";
    bc.node = "B";
    bc.host = sim::make_node_b();
    bc.memory_bytes = 512 * kMiB;
    bc.functional = functional;
    board = std::make_unique<sim::Board>(bc);

    devmgr::DeviceManagerConfig mc;
    mc.id = "devmgr-b";
    mc.allow_shared_memory = with_shm;
    manager = std::make_unique<devmgr::DeviceManager>(
        mc, board.get(), with_shm ? &node_shm : nullptr);

    remote::ManagerAddress address;
    address.endpoint = &manager->endpoint();
    address.transport = with_shm ? net::local_control(bc.host)
                                 : net::local_grpc(bc.host);
    address.node_shm = with_shm ? &node_shm : nullptr;
    address.prefer_shared_memory = with_shm;
    runtime = std::make_unique<remote::RemoteRuntime>(
        std::vector<remote::ManagerAddress>{address});
  }

  shm::Namespace node_shm;
  std::unique_ptr<sim::Board> board;
  std::unique_ptr<devmgr::DeviceManager> manager;
  std::unique_ptr<remote::RemoteRuntime> runtime;
};

// The transparency check: identical host code runs against any
// ocl::Runtime. (This function is also exercised against NativeRuntime.)
std::vector<float> run_vadd(ocl::Runtime& runtime, ocl::Session& session,
                            std::size_t n) {
  auto devices = runtime.devices();
  EXPECT_TRUE(devices.ok()) << devices.status().to_string();
  auto context = runtime.create_context(devices.value()[0].id, session);
  EXPECT_TRUE(context.ok()) << context.status().to_string();
  EXPECT_TRUE(context.value()->program(sim::BitstreamLibrary::kVadd).ok());

  std::vector<float> a(n), b(n), c(n, 0.0F);
  std::iota(a.begin(), a.end(), 0.0F);
  std::iota(b.begin(), b.end(), 1000.0F);

  auto ba = context.value()->create_buffer(n * sizeof(float));
  auto bb = context.value()->create_buffer(n * sizeof(float));
  auto bc = context.value()->create_buffer(n * sizeof(float));
  EXPECT_TRUE(ba.ok() && bb.ok() && bc.ok());
  auto queue = context.value()->create_queue();
  EXPECT_TRUE(queue.ok());

  EXPECT_TRUE(queue.value()
                  ->enqueue_write(ba.value(), 0,
                                  as_bytes(a.data(), n * sizeof(float)), true)
                  .ok());
  EXPECT_TRUE(queue.value()
                  ->enqueue_write(bb.value(), 0,
                                  as_bytes(b.data(), n * sizeof(float)), true)
                  .ok());
  auto kernel = context.value()->create_kernel("vadd");
  EXPECT_TRUE(kernel.ok());
  kernel.value().set_arg(0, ba.value());
  kernel.value().set_arg(1, bb.value());
  kernel.value().set_arg(2, bc.value());
  kernel.value().set_arg(3, static_cast<std::int64_t>(n));
  auto event = queue.value()->enqueue_kernel(kernel.value(), {n, 1, 1});
  EXPECT_TRUE(event.ok());
  EXPECT_TRUE(queue.value()->finish().ok());
  EXPECT_EQ(event.value()->status(), ocl::EventStatus::kComplete);
  EXPECT_TRUE(queue.value()
                  ->enqueue_read(bc.value(), 0,
                                 as_writable_bytes(c.data(),
                                                   n * sizeof(float)),
                                 true)
                  .ok());
  return c;
}

TEST(RemoteRuntime, VaddOverGrpcDataPath) {
  Rig rig(/*with_shm=*/false);
  ocl::Session session("fn-grpc");
  auto c = run_vadd(*rig.runtime, session, 4096);
  for (std::size_t i = 0; i < c.size(); ++i) {
    ASSERT_FLOAT_EQ(c[i], static_cast<float>(i) + (1000.0F + i));
  }
  EXPECT_GT(rig.manager->tasks_executed(), 0u);
}

TEST(RemoteRuntime, VaddOverSharedMemory) {
  Rig rig(/*with_shm=*/true);
  ocl::Session session("fn-shm");
  auto c = run_vadd(*rig.runtime, session, 4096);
  for (std::size_t i = 0; i < c.size(); ++i) {
    ASSERT_FLOAT_EQ(c[i], static_cast<float>(i) + (1000.0F + i));
  }
}

TEST(RemoteRuntime, SharedMemorySlotsAreReleased) {
  Rig rig(/*with_shm=*/true);
  ocl::Session session("fn-shm");
  (void)run_vadd(*rig.runtime, session, 1024);
  // run_vadd destroyed its context: the manager's dispatcher (async) unlinks
  // the session's segment, leaving the node namespace empty again.
  for (int i = 0; i < 200 && rig.node_shm.segment_count() != 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(rig.node_shm.segment_count(), 0u);
}

TEST(RemoteRuntime, SharedMemoryPathIsFasterThanGrpc) {
  Rig grpc(false);
  Rig shm(true);
  ocl::Session s1("fn-a");
  ocl::Session s2("fn-b");
  (void)run_vadd(*grpc.runtime, s1, 1u << 20);  // 4 MiB buffers
  (void)run_vadd(*shm.runtime, s2, 1u << 20);
  EXPECT_LT(s2.now().ns(), s1.now().ns());
}

// A timing-only board gets a size-only segment: no payload bytes cross it,
// and a read lands in the application buffer as the zeros the board itself
// reads back. The modeled charges match a functional board's segment.
TEST(RemoteRuntime, TimingOnlyBoardShmReadFillsZeros) {
  constexpr std::size_t kSize = 64 * 1024;
  auto round_trip = [&](bool functional, Bytes& out) {
    Rig rig(/*with_shm=*/true, functional);
    ocl::Session session("fn-shm");
    auto context = rig.runtime->create_context("fpga-b", session);
    EXPECT_TRUE(context.ok());
    if (!context.ok()) return vt::Time{};
    // Session 1 was the router's device probe.
    auto segment = rig.node_shm.open("devmgr-b:sess:2");
    EXPECT_TRUE(segment.ok());
    if (segment.ok()) {
      EXPECT_EQ(segment.value()->has_contents(), functional);
    }
    auto buffer = context.value()->create_buffer(kSize);
    auto queue = context.value()->create_queue();
    EXPECT_TRUE(buffer.ok() && queue.ok());
    if (!buffer.ok() || !queue.ok()) return vt::Time{};
    EXPECT_TRUE(queue.value()
                    ->enqueue_write(buffer.value(), 0, Bytes(kSize, 0x5A),
                                    /*blocking=*/true)
                    .ok());
    EXPECT_TRUE(queue.value()
                    ->enqueue_read(buffer.value(), 0, MutableByteSpan{out},
                                   /*blocking=*/true)
                    .ok());
    return session.now();
  };
  Bytes bytes_out(kSize, 0xFF);
  const vt::Time with_bytes = round_trip(/*functional=*/true, bytes_out);
  EXPECT_EQ(bytes_out, Bytes(kSize, 0x5A));
  Bytes sizes_out(kSize, 0xFF);
  const vt::Time with_sizes = round_trip(/*functional=*/false, sizes_out);
  EXPECT_EQ(sizes_out, Bytes(kSize));
  EXPECT_EQ(with_sizes.ns(), with_bytes.ns());
}

TEST(RemoteRuntime, DeviceInfoMatchesNative) {
  Rig rig(true);
  auto devices = rig.runtime->devices();
  ASSERT_TRUE(devices.ok());
  ASSERT_EQ(devices.value().size(), 1u);
  EXPECT_EQ(devices.value()[0].id, "fpga-b");
  EXPECT_EQ(devices.value()[0].vendor, "Intel");
  EXPECT_EQ(devices.value()[0].platform, "a10gx_de5a_net");
}

TEST(RemoteRuntime, TwoTenantsShareOneBoard) {
  Rig rig(true);
  constexpr int kCalls = 5;
  constexpr std::size_t kN = 64 * 1024;

  auto tenant = [&](const std::string& id, vt::Time* finish) {
    ocl::Session session(id);
    auto devices = rig.runtime->devices();
    ASSERT_TRUE(devices.ok());
    auto context = rig.runtime->create_context("fpga-b", session);
    ASSERT_TRUE(context.ok());
    ASSERT_TRUE(context.value()->program(sim::BitstreamLibrary::kVadd).ok());
    auto a = context.value()->create_buffer(kN * sizeof(float));
    auto b = context.value()->create_buffer(kN * sizeof(float));
    auto c = context.value()->create_buffer(kN * sizeof(float));
    ASSERT_TRUE(a.ok() && b.ok() && c.ok());
    auto queue = context.value()->create_queue();
    ASSERT_TRUE(queue.ok());
    std::vector<float> data(kN, 1.5F);
    auto kernel = context.value()->create_kernel("vadd");
    ASSERT_TRUE(kernel.ok());
    for (int call = 0; call < kCalls; ++call) {
      ASSERT_TRUE(queue.value()
                      ->enqueue_write(a.value(), 0,
                                      as_bytes(data.data(),
                                               data.size() * sizeof(float)),
                                      false)
                      .ok());
      ASSERT_TRUE(queue.value()
                      ->enqueue_write(b.value(), 0,
                                      as_bytes(data.data(),
                                               data.size() * sizeof(float)),
                                      false)
                      .ok());
      kernel.value().set_arg(0, a.value());
      kernel.value().set_arg(1, b.value());
      kernel.value().set_arg(2, c.value());
      kernel.value().set_arg(3, static_cast<std::int64_t>(kN));
      ASSERT_TRUE(
          queue.value()->enqueue_kernel(kernel.value(), {kN, 1, 1}).ok());
      std::vector<float> out(kN);
      ASSERT_TRUE(queue.value()
                      ->enqueue_read(c.value(), 0,
                                     as_writable_bytes(out.data(),
                                                       out.size() *
                                                           sizeof(float)),
                                     true)
                      .ok());
      ASSERT_FLOAT_EQ(out[0], 3.0F);
    }
    *finish = session.now();
  };

  vt::Time f1;
  vt::Time f2;
  std::thread t1(tenant, "tenant-1", &f1);
  std::thread t2(tenant, "tenant-2", &f2);
  t1.join();
  t2.join();
  EXPECT_GT(f1.ns(), 0);
  EXPECT_GT(f2.ns(), 0);
  // Each tenant programmed once; the second program call was a no-op.
  EXPECT_EQ(rig.board->reconfiguration_count(), 1u);
  // All 2 * kCalls request groups executed (counted before the completion
  // notifications are delivered).
  EXPECT_GE(rig.manager->tasks_executed(), 2u * kCalls);
}

}  // namespace
}  // namespace bf
