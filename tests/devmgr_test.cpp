// bf::devmgr: session isolation, task semantics, reconfiguration behaviour
// and metrics, exercised through the Remote OpenCL Library.
#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <thread>

#include "devmgr/device_manager.h"
#include "remote/remote_runtime.h"
#include "shm/namespace.h"
#include "sim/bitstream.h"
#include "sim/board.h"

namespace bf::devmgr {
namespace {

struct Rig {
  Rig() {
    sim::BoardConfig bc;
    bc.id = "fpga-b";
    bc.node = "B";
    bc.host = sim::make_node_b();
    bc.memory_bytes = 64 * kMiB;
    board = std::make_unique<sim::Board>(bc);
    DeviceManagerConfig mc;
    mc.id = "devmgr-b";
    // These tests drive two sessions from one thread on purpose; a short
    // grace keeps the idle-producer fallback fast.
    mc.gate_stall_grace = std::chrono::milliseconds(50);
    manager = std::make_unique<DeviceManager>(mc, board.get(), &node_shm);
    remote::ManagerAddress address;
    address.endpoint = &manager->endpoint();
    address.transport = net::local_control(bc.host);
    address.node_shm = &node_shm;
    runtime = std::make_unique<remote::RemoteRuntime>(
        std::vector<remote::ManagerAddress>{address});
  }

  std::unique_ptr<ocl::Context> make_context(ocl::Session& session) {
    auto context = runtime->create_context("fpga-b", session);
    BF_CHECK(context.ok());
    return std::move(context.value());
  }

  shm::Namespace node_shm;
  std::unique_ptr<sim::Board> board;
  std::unique_ptr<DeviceManager> manager;
  std::unique_ptr<remote::RemoteRuntime> runtime;
};

TEST(DeviceManager, SessionsGetIsolatedResourcePools) {
  Rig rig;
  ocl::Session s1("tenant-1");
  ocl::Session s2("tenant-2");
  auto c1 = rig.make_context(s1);
  auto c2 = rig.make_context(s2);
  ASSERT_TRUE(c1->program(sim::BitstreamLibrary::kVadd).ok());
  ASSERT_TRUE(c2->program(sim::BitstreamLibrary::kVadd).ok());
  auto b1 = c1->create_buffer(1024);
  auto b2 = c2->create_buffer(1024);
  ASSERT_TRUE(b1.ok() && b2.ok());
  // Per-session id spaces start at 1 independently: isolation means tenant 2
  // gets its own id 1 and never sees tenant 1's objects.
  EXPECT_EQ(b1.value().id, 1u);
  EXPECT_EQ(b2.value().id, 1u);
  EXPECT_EQ(rig.manager->session_count(), 2u);
  // Releasing tenant-2's buffer does not disturb tenant-1's.
  ASSERT_TRUE(c2->release_buffer(b2.value()).ok());
  auto queue1 = c1->create_queue();
  ASSERT_TRUE(queue1.ok());
  Bytes data(1024, 0x11);
  EXPECT_TRUE(
      queue1.value()->enqueue_write(b1.value(), 0, ByteSpan{data}, true).ok());
}

TEST(DeviceManager, UnknownBufferInTaskYieldsEventError) {
  Rig rig;
  ocl::Session session("t");
  auto context = rig.make_context(session);
  ASSERT_TRUE(context->program(sim::BitstreamLibrary::kVadd).ok());
  auto queue = context->create_queue();
  ASSERT_TRUE(queue.ok());
  ocl::Buffer bogus{999, 64};
  Bytes data(64);
  auto event = queue.value()->enqueue_write(bogus, 0, ByteSpan{data}, false);
  ASSERT_TRUE(event.ok());  // enqueue itself succeeds (async)
  ASSERT_TRUE(queue.value()->flush().ok());
  Status status = event.value()->wait();
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kNotFound);
}

TEST(DeviceManager, OutOfMemoryReportedOnCreateBuffer) {
  Rig rig;
  ocl::Session session("t");
  auto context = rig.make_context(session);
  auto too_big = context->create_buffer(1ULL << 40);
  EXPECT_EQ(too_big.status().code(), StatusCode::kResourceExhausted);
}

TEST(DeviceManager, UnknownKernelRejectedAtCreate) {
  Rig rig;
  ocl::Session session("t");
  auto context = rig.make_context(session);
  ASSERT_TRUE(context->program(sim::BitstreamLibrary::kVadd).ok());
  EXPECT_EQ(context->create_kernel("sobel").status().code(),
            StatusCode::kNotFound);
  EXPECT_TRUE(context->create_kernel("vadd").ok());
}

TEST(DeviceManager, UnknownBitstreamRejected) {
  Rig rig;
  ocl::Session session("t");
  auto context = rig.make_context(session);
  EXPECT_EQ(context->program("not-a-bitstream").code(),
            StatusCode::kNotFound);
}

TEST(DeviceManager, OpsWithoutFlushDoNotExecute) {
  Rig rig;
  ocl::Session session("t");
  auto context = rig.make_context(session);
  ASSERT_TRUE(context->program(sim::BitstreamLibrary::kVadd).ok());
  auto buffer = context->create_buffer(1024);
  ASSERT_TRUE(buffer.ok());
  auto queue = context->create_queue();
  ASSERT_TRUE(queue.ok());
  Bytes data(1024);
  auto event =
      queue.value()->enqueue_write(buffer.value(), 0, ByteSpan{data}, false);
  ASSERT_TRUE(event.ok());
  // Give the manager a real-time moment: nothing should execute.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(rig.manager->tasks_executed(), 0u);
  EXPECT_NE(event.value()->status(), ocl::EventStatus::kComplete);
  // The flush (implied by wait) releases the task.
  ASSERT_TRUE(event.value()->wait().ok());
  EXPECT_EQ(rig.manager->tasks_executed(), 1u);
}

TEST(DeviceManager, FinishNotifiesAfterAllOps) {
  Rig rig;
  ocl::Session session("t");
  auto context = rig.make_context(session);
  ASSERT_TRUE(context->program(sim::BitstreamLibrary::kVadd).ok());
  auto buffer = context->create_buffer(4 * kMiB);
  ASSERT_TRUE(buffer.ok());
  auto queue = context->create_queue();
  ASSERT_TRUE(queue.ok());
  Bytes data(4 * kMiB);
  auto e1 =
      queue.value()->enqueue_write(buffer.value(), 0, ByteSpan{data}, false);
  auto e2 =
      queue.value()->enqueue_write(buffer.value(), 0, ByteSpan{data}, false);
  ASSERT_TRUE(e1.ok() && e2.ok());
  ASSERT_TRUE(queue.value()->finish().ok());
  EXPECT_EQ(e1.value()->status(), ocl::EventStatus::kComplete);
  EXPECT_EQ(e2.value()->status(), ocl::EventStatus::kComplete);
  EXPECT_GE(session.now(), e2.value()->completion_time());
  EXPECT_GE(e2.value()->completion_time(), e1.value()->completion_time());
}

TEST(DeviceManager, ReconfigurationWipesAllTenantsBuffers) {
  Rig rig;
  ocl::Session s1("tenant-1");
  ocl::Session s2("tenant-2");
  auto c1 = rig.make_context(s1);
  auto c2 = rig.make_context(s2);
  ASSERT_TRUE(c1->program(sim::BitstreamLibrary::kVadd).ok());
  auto buffer = c1->create_buffer(1024);
  ASSERT_TRUE(buffer.ok());
  // Tenant 2 loads a different image: DDR is wiped for everyone.
  ASSERT_TRUE(c2->program(sim::BitstreamLibrary::kSobel).ok());
  auto queue = c1->create_queue();
  ASSERT_TRUE(queue.ok());
  Bytes data(1024);
  auto event =
      queue.value()->enqueue_write(buffer.value(), 0, ByteSpan{data}, false);
  ASSERT_TRUE(event.ok());
  ASSERT_TRUE(queue.value()->flush().ok());
  EXPECT_FALSE(event.value()->wait().ok());
  EXPECT_EQ(rig.board->reconfiguration_count(), 2u);
}

TEST(DeviceManager, MultipleQueuesProduceIndependentTasks) {
  Rig rig;
  ocl::Session session("t");
  auto context = rig.make_context(session);
  ASSERT_TRUE(context->program(sim::BitstreamLibrary::kVadd).ok());
  auto buffer = context->create_buffer(1024);
  ASSERT_TRUE(buffer.ok());
  auto q1 = context->create_queue();
  auto q2 = context->create_queue();
  ASSERT_TRUE(q1.ok() && q2.ok());
  Bytes data(1024);
  (void)q1.value()->enqueue_write(buffer.value(), 0, ByteSpan{data}, false);
  (void)q2.value()->enqueue_write(buffer.value(), 0, ByteSpan{data}, false);
  ASSERT_TRUE(q1.value()->finish().ok());
  ASSERT_TRUE(q2.value()->finish().ok());
  // Two queues, two flushes => two tasks (counted before the finish
  // completion is delivered).
  EXPECT_EQ(rig.manager->tasks_executed(), 2u);
}

TEST(DeviceManager, ExportsPrometheusMetrics) {
  Rig rig;
  ocl::Session session("t");
  auto context = rig.make_context(session);
  ASSERT_TRUE(context->program(sim::BitstreamLibrary::kVadd).ok());
  auto buffer = context->create_buffer(1024);
  ASSERT_TRUE(buffer.ok());
  auto queue = context->create_queue();
  ASSERT_TRUE(queue.ok());
  Bytes data(1024);
  ASSERT_TRUE(
      queue.value()->enqueue_write(buffer.value(), 0, ByteSpan{data}, true).ok());
  const std::string text = rig.manager->metrics().expose();
  EXPECT_NE(text.find("bf_devmgr_tasks_total"), std::string::npos);
  EXPECT_NE(text.find("bf_devmgr_ops_total"), std::string::npos);
  EXPECT_NE(text.find("device=\"fpga-b\""), std::string::npos);
  EXPECT_NE(text.find("bf_devmgr_task_span_ms_bucket"), std::string::npos);
}

TEST(DeviceManager, UtilizationAndClientAttribution) {
  Rig rig;
  ocl::Session session("tenant-x");
  auto context = rig.make_context(session);
  ASSERT_TRUE(context->program(sim::BitstreamLibrary::kVadd).ok());
  auto buffer = context->create_buffer(8 * kMiB);
  ASSERT_TRUE(buffer.ok());
  auto queue = context->create_queue();
  ASSERT_TRUE(queue.ok());
  Bytes data(8 * kMiB);
  ASSERT_TRUE(
      queue.value()->enqueue_write(buffer.value(), 0, ByteSpan{data}, true).ok());
  const vt::Time horizon = session.now() + vt::Duration::seconds(1);
  const double utilization =
      rig.manager->utilization(vt::Time::zero(), horizon);
  EXPECT_GT(utilization, 0.0);
  EXPECT_LT(utilization, 1.0);
  const vt::Duration mine = rig.manager->client_busy_between(
      "tenant-x", vt::Time::zero(), horizon);
  EXPECT_GT(mine.ns(), 0);
  EXPECT_EQ(rig.manager
                ->client_busy_between("ghost", vt::Time::zero(), horizon)
                .ns(),
            0);
  // All board busy time belongs to the only tenant.
  EXPECT_EQ(mine.ns(),
            rig.board->busy_between(vt::Time::zero(), horizon).ns());
}

TEST(DeviceManager, CountsEachStallFallbackPop) {
  Rig rig;  // 50 ms stall grace
  ocl::Session session("t");
  auto context = rig.make_context(session);
  ASSERT_TRUE(context->program(sim::BitstreamLibrary::kVadd).ok());
  auto buffer = context->create_buffer(1024);
  ASSERT_TRUE(buffer.ok());
  auto queue = context->create_queue();
  ASSERT_TRUE(queue.ok());
  EXPECT_EQ(rig.manager->stall_fallbacks(), 0u);
  // A producer that registers and never announces pins the gate at t=0, so
  // the one task stamped later can only run via the stall-breaker.
  vt::Gate::Source idle =
      rig.manager->endpoint().gate().register_source(vt::Time::zero());
  Bytes data(1024);
  ASSERT_TRUE(
      queue.value()->enqueue_write(buffer.value(), 0, ByteSpan{data}, true).ok());
  EXPECT_EQ(rig.manager->stall_fallbacks(), 1u);
  EXPECT_NE(rig.manager->metrics().expose().find(
                "bf_gate_stall_fallbacks_total{device=\"fpga-b\","
                "manager=\"devmgr-b\"} 1"),
            std::string::npos)
      << rig.manager->metrics().expose();
}

TEST(DeviceManager, SegmentNameIsDeterministic) {
  Rig rig;
  EXPECT_EQ(rig.manager->segment_name(3), "devmgr-b:sess:3");
}

}  // namespace
}  // namespace bf::devmgr
