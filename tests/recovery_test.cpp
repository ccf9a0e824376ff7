// Failure-recovery suite (ctest -L recovery; docs/RESILIENCE.md).
//
// Where the fault matrix (fault_matrix_test.cpp) asserts the stack is *safe*
// under injected faults, this suite asserts it *recovers* from them when the
// caller arms failure handling: CallOptions deadlines turn a lost reply into
// DEADLINE_EXCEEDED at a deterministic VT stamp instead of a wedged thread,
// retry-with-backoff absorbs transient faults on idempotent methods, device
// health probes drive unhealthy-board migration, and the gateway's circuit
// breaker sheds load fast-fail while a function has no healthy replica.
//
// Layers covered, bottom-up:
//   1. primitives   — Backoff delay sequences, the event FSM's terminal
//                     states, Scheduler::cancel_session;
//   2. net          — late reply vs wedged server vs dropped-reply retry
//                     against a hand-rolled echo server;
//   3. devmgr       — health() snapshots, the kHealthCheck RPC, idempotent
//                     duplicate OpenSession;
//   4. remote       — a recovery matrix: the PR-1 fault sites re-armed WITH
//                     deadlines/retries, asserting every scenario completes
//                     or fast-fails with an expected ErrorCode, stays inside
//                     a VT watchdog, and is digest-deterministic per seed;
//                     plus event poisoning (FAILED / TIMED_OUT dependents);
//   5. testbed      — probe-driven migration off a dead board and the
//                     gateway breaker opening (HTTP 503) and re-closing.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "common/call_options.h"
#include "devmgr/device_manager.h"
#include "devmgr/scheduler.h"
#include "fault/injector.h"
#include "net/endpoint.h"
#include "proto/messages.h"
#include "remote/event_state.h"
#include "remote/remote_runtime.h"
#include "shm/namespace.h"
#include "sim/board.h"
#include "testbed/testbed.h"
#include "workloads/sobel.h"

namespace bf {
namespace {

// --- 1. primitives -----------------------------------------------------------

TEST(Backoff, DeterministicCappedAndJittered) {
  RetryPolicy policy;
  policy.initial_backoff = vt::Duration::millis(1);
  policy.multiplier = 2.0;
  policy.max_backoff = vt::Duration::millis(8);
  policy.jitter = 0.25;
  policy.jitter_seed = 42;

  Backoff a(policy);
  Backoff b(policy);
  const auto cap_ns = static_cast<double>(policy.max_backoff.ns()) *
                      (1.0 + policy.jitter);
  for (int i = 0; i < 8; ++i) {
    const vt::Duration da = a.next();
    const vt::Duration db = b.next();
    // Same policy (incl. jitter_seed) => bit-identical delay sequence.
    EXPECT_EQ(da.ns(), db.ns()) << "attempt " << i;
    EXPECT_GT(da.ns(), 0);
    EXPECT_LE(static_cast<double>(da.ns()), cap_ns) << "attempt " << i;
  }

  // A different jitter stream diverges (jitter is really applied).
  policy.jitter_seed = 43;
  Backoff c(policy);
  int diverged = 0;
  Backoff a2({.initial_backoff = vt::Duration::millis(1),
              .multiplier = 2.0,
              .max_backoff = vt::Duration::millis(8),
              .jitter = 0.25,
              .jitter_seed = 42});
  for (int i = 0; i < 8; ++i) {
    if (a2.next().ns() != c.next().ns()) ++diverged;
  }
  EXPECT_GT(diverged, 0);
}

TEST(Backoff, NoJitterIsPureExponentialWithCap) {
  RetryPolicy policy;
  policy.initial_backoff = vt::Duration::millis(1);
  policy.multiplier = 2.0;
  policy.max_backoff = vt::Duration::millis(4);
  policy.jitter = 0.0;
  Backoff backoff(policy);
  EXPECT_EQ(backoff.next().ns(), vt::Duration::millis(1).ns());
  EXPECT_EQ(backoff.next().ns(), vt::Duration::millis(2).ns());
  EXPECT_EQ(backoff.next().ns(), vt::Duration::millis(4).ns());
  EXPECT_EQ(backoff.next().ns(), vt::Duration::millis(4).ns());  // capped
}

TEST(EventFsm, FirstTerminalInputWins) {
  using remote::EventFsm;
  using remote::EventInput;
  using remote::EventState;

  {  // A completion racing a client-side timeout cannot resurrect the event.
    EventFsm fsm;
    EXPECT_TRUE(fsm.apply(EventInput::kTimedOut));
    EXPECT_FALSE(fsm.apply(EventInput::kCompleted));
    EXPECT_EQ(fsm.state(), EventState::kTimedOut);
    EXPECT_TRUE(fsm.terminal());
    EXPECT_FALSE(fsm.complete());
  }
  {  // A late failure cannot regress a completed event.
    EventFsm fsm;
    EXPECT_TRUE(fsm.apply(EventInput::kEnqueuedAck));
    EXPECT_TRUE(fsm.apply(EventInput::kCompleted));
    EXPECT_FALSE(fsm.apply(EventInput::kFailed));
    EXPECT_FALSE(fsm.apply(EventInput::kTimedOut));
    EXPECT_EQ(fsm.state(), EventState::kComplete);
  }
  {  // Failure is reachable from every non-terminal state.
    EventFsm fsm;
    EXPECT_TRUE(fsm.apply(EventInput::kFailed));
    EXPECT_EQ(fsm.state(), EventState::kFailed);
    EXPECT_FALSE(fsm.apply(EventInput::kEnqueuedAck));
    EXPECT_FALSE(fsm.apply(EventInput::kBufferStaged));
  }
}

devmgr::Task make_task(std::uint64_t seq, std::uint64_t session,
                       const char* client, std::int64_t ready_ns) {
  devmgr::Task task;
  task.seq = seq;
  task.session_id = session;
  task.client_id = client;
  task.ready = vt::Time::zero() + vt::Duration::nanos(ready_ns);
  devmgr::Operation op;
  op.kind = devmgr::Operation::Kind::kFinish;
  op.op_id = seq;
  task.ops.push_back(op);
  return task;
}

TEST(TaskQueueRecovery, CancelSessionRemovesOnlyThatSession) {
  devmgr::Scheduler queue;
  ASSERT_TRUE(queue.push(make_task(1, 10, "a", 100)).ok());
  ASSERT_TRUE(queue.push(make_task(2, 20, "b", 200)).ok());
  ASSERT_TRUE(queue.push(make_task(3, 10, "a", 300)).ok());
  ASSERT_TRUE(queue.push(make_task(4, 30, "c", 400)).ok());

  auto cancelled = queue.cancel_session(10);
  ASSERT_EQ(cancelled.size(), 2u);
  for (const auto& task : cancelled) EXPECT_EQ(task.session_id, 10u);
  EXPECT_EQ(queue.size(), 2u);

  // Cancelling an unknown session is a harmless no-op.
  EXPECT_TRUE(queue.cancel_session(99).empty());
  EXPECT_EQ(queue.size(), 2u);
  queue.close();
}

// --- 2. net: deadlines and retry against a hand-rolled server ----------------

// Minimal unary server: replies to every request after a configurable
// modeled delay, or swallows requests entirely (a wedged/crashed handler).
class EchoServer {
 public:
  explicit EchoServer(vt::Duration reply_delay, bool swallow = false)
      : endpoint_("test://echo"), reply_delay_(reply_delay),
        swallow_(swallow) {
    endpoint_.set_handler([this](std::shared_ptr<net::Connection> conn) {
      std::lock_guard lock(mutex_);
      threads_.emplace_back([this, conn] { serve(std::move(conn)); });
    });
  }

  ~EchoServer() {
    endpoint_.shutdown();
    std::lock_guard lock(mutex_);
    for (auto& thread : threads_) thread.join();
  }

  net::ServerEndpoint& endpoint() { return endpoint_; }

 private:
  void serve(std::shared_ptr<net::Connection> conn) {
    while (auto frame = conn->next_request()) {
      if (swallow_) {
        conn->done_processing();
        continue;
      }
      proto::AckResp resp;
      conn->reply(*frame, proto::encode(resp),
                  frame->arrival_time + reply_delay_);
    }
  }

  net::ServerEndpoint endpoint_;
  vt::Duration reply_delay_;
  bool swallow_;
  std::mutex mutex_;
  std::vector<std::thread> threads_;
};

TEST(NetDeadline, LateReplyCompletesDeadlineExceeded) {
  EchoServer server(vt::Duration::millis(10));
  vt::Cursor cursor;
  auto conn = server.endpoint().connect(
      "client", net::local_control(sim::make_node_b()), cursor);
  ASSERT_TRUE(conn.ok());

  CallOptions options;
  options.timeout = vt::Duration::millis(1);
  const vt::Time before = cursor.now();
  auto reply = conn.value()->call(proto::Method::kGetDeviceInfo, Bytes{},
                                  cursor, options);
  EXPECT_EQ(reply.status().code(), StatusCode::kDeadlineExceeded)
      << reply.status().to_string();
  // The timeout is observed, never silently exceeded on the modeled clock by
  // less than the deadline: the cursor lands at/after the armed deadline.
  EXPECT_GE((cursor.now() - before).ns(), vt::Duration::millis(1).ns());
}

TEST(NetDeadline, WedgedServerAbandonedAtDeadline) {
  EchoServer server(vt::Duration::nanos(0), /*swallow=*/true);
  vt::Cursor cursor;
  auto conn = server.endpoint().connect(
      "client", net::local_control(sim::make_node_b()), cursor);
  ASSERT_TRUE(conn.ok());

  CallOptions options;
  options.timeout = vt::Duration::millis(5);
  options.wedge_grace = std::chrono::milliseconds(100);
  const vt::Time before = cursor.now();
  auto reply = conn.value()->call(proto::Method::kGetDeviceInfo, Bytes{},
                                  cursor, options);
  EXPECT_EQ(reply.status().code(), StatusCode::kDeadlineExceeded)
      << reply.status().to_string();
  EXPECT_GE((cursor.now() - before).ns(), vt::Duration::millis(5).ns());
}

TEST(NetDeadline, DroppedReplyWithoutRetryFailsFast) {
  fault::ScopedInjection inject(/*seed=*/7);
  inject.site(fault::site::kNetReplyDrop, {.budget = 1});

  EchoServer server(vt::Duration::nanos(0));
  vt::Cursor cursor;
  auto conn = server.endpoint().connect(
      "client", net::local_control(sim::make_node_b()), cursor);
  ASSERT_TRUE(conn.ok());

  CallOptions options;  // default retry: single attempt
  options.timeout = vt::Duration::millis(5);
  options.wedge_grace = std::chrono::milliseconds(100);
  auto reply = conn.value()->call(proto::Method::kGetDeviceInfo, Bytes{},
                                  cursor, options);
  EXPECT_EQ(reply.status().code(), StatusCode::kDeadlineExceeded)
      << reply.status().to_string();
  EXPECT_EQ(fault::Injector::instance().fires(fault::site::kNetReplyDrop), 1u);
}

TEST(NetDeadline, RetryRecoversFromDroppedReply) {
  fault::ScopedInjection inject(/*seed=*/7);
  inject.site(fault::site::kNetReplyDrop, {.budget = 1});

  EchoServer server(vt::Duration::nanos(0));
  vt::Cursor cursor;
  auto conn = server.endpoint().connect(
      "client", net::local_control(sim::make_node_b()), cursor);
  ASSERT_TRUE(conn.ok());

  CallOptions options;
  options.timeout = vt::Duration::millis(5);
  options.wedge_grace = std::chrono::milliseconds(100);
  options.retry.max_attempts = 3;  // kGetDeviceInfo is idempotent
  const vt::Time before = cursor.now();
  auto reply = conn.value()->call(proto::Method::kGetDeviceInfo, Bytes{},
                                  cursor, options);
  EXPECT_TRUE(reply.ok()) << reply.status().to_string();
  EXPECT_EQ(fault::Injector::instance().fires(fault::site::kNetReplyDrop), 1u);
  // The failed first attempt + backoff were charged to the caller's clock:
  // at least a full deadline elapsed before the successful attempt.
  EXPECT_GE((cursor.now() - before).ns(), vt::Duration::millis(5).ns());
}

// --- 3. devmgr: health probes + idempotent OpenSession -----------------------

struct ManagerRig {
  ManagerRig() {
    sim::BoardConfig bc;
    bc.id = "fpga-b";
    bc.node = "B";
    bc.host = sim::make_node_b();
    bc.memory_bytes = 128 * kMiB;
    board = std::make_unique<sim::Board>(bc);
    devmgr::DeviceManagerConfig mc;
    mc.id = "devmgr-b";
    mc.record_execution_journal = true;
    mc.gate_stall_grace = std::chrono::milliseconds(5000);
    manager =
        std::make_unique<devmgr::DeviceManager>(mc, board.get(), &node_shm);
  }

  remote::ManagerAddress address(const CallOptions& options = {}) {
    remote::ManagerAddress addr;
    addr.endpoint = &manager->endpoint();
    addr.transport = net::local_control(sim::make_node_b());
    addr.node_shm = &node_shm;
    addr.call_options = options;
    return addr;
  }

  shm::Namespace node_shm;
  std::unique_ptr<sim::Board> board;
  std::unique_ptr<devmgr::DeviceManager> manager;
};

TEST(DevmgrHealth, SnapshotReportsLoadAndShutdown) {
  ManagerRig rig;
  auto healthy = rig.manager->health();
  ASSERT_TRUE(healthy.ok()) << healthy.status().to_string();
  EXPECT_TRUE(healthy.value().accepting);
  EXPECT_EQ(healthy.value().queue_depth, 0u);
  EXPECT_EQ(healthy.value().sessions, 0u);

  rig.manager->shutdown();
  auto dead = rig.manager->health();
  EXPECT_EQ(dead.status().code(), StatusCode::kUnavailable);
}

TEST(DevmgrHealth, HealthCheckRpcAndDuplicateOpenSession) {
  ManagerRig rig;
  vt::Cursor cursor;
  auto conn = rig.manager->endpoint().connect(
      "probe-client", net::local_control(sim::make_node_b()), cursor);
  ASSERT_TRUE(conn.ok());

  proto::OpenSessionReq open;
  open.client_id = "probe-client";
  auto open_reply = conn.value()->call(proto::Method::kOpenSession,
                                       proto::encode(open), cursor);
  ASSERT_TRUE(open_reply.ok()) << open_reply.status().to_string();
  auto open_resp = proto::decode<proto::OpenSessionResp>(
      ByteSpan{open_reply.value().payload});
  ASSERT_TRUE(open_resp.ok());
  ASSERT_TRUE(open_resp.value().status.to_status().ok());
  const std::uint64_t session_id = open_resp.value().session_id;
  ASSERT_NE(session_id, 0u);

  // Liveness + load probe over the wire.
  auto health_reply =
      conn.value()->call(proto::Method::kHealthCheck, Bytes{}, cursor);
  ASSERT_TRUE(health_reply.ok()) << health_reply.status().to_string();
  auto health =
      proto::decode<proto::HealthResp>(ByteSpan{health_reply.value().payload});
  ASSERT_TRUE(health.ok());
  EXPECT_TRUE(health.value().status.to_status().ok());
  EXPECT_TRUE(health.value().accepting);
  EXPECT_GE(health.value().sessions, 1u);

  // Duplicate OpenSession on the same connection re-acks the existing
  // session (this is what makes OpenSession idempotent, and so retryable).
  auto dup_reply = conn.value()->call(proto::Method::kOpenSession,
                                      proto::encode(open), cursor);
  ASSERT_TRUE(dup_reply.ok()) << dup_reply.status().to_string();
  auto dup_resp = proto::decode<proto::OpenSessionResp>(
      ByteSpan{dup_reply.value().payload});
  ASSERT_TRUE(dup_resp.ok());
  EXPECT_TRUE(dup_resp.value().status.to_status().ok());
  EXPECT_EQ(dup_resp.value().session_id, session_id);
}

// --- 4. remote: recovery matrix + event poisoning ----------------------------

// Every control-plane call in the matrix runs with a deadline and retries
// armed. The VT deadline must comfortably exceed the worst-case *clean*
// modeled latency (board reconfiguration is the long pole), so a timeout
// always means a lost frame, never a slow-but-correct path.
CallOptions recovery_options() {
  CallOptions options;
  options.timeout = vt::Duration::seconds(10);
  // Generous real-time escape hatch: only a frame that truly never arrives
  // should take it, even under sanitizer slowdowns.
  options.wedge_grace = std::chrono::milliseconds(400);
  options.retry.max_attempts = 3;
  return options;
}

struct RecoveryCell {
  const char* label;
  const char* site;
  fault::Trigger trigger;
};

// The injectable sites of PR 1, re-armed WITH failure handling. after_hits
// offsets push the fault past session setup; budgets bound fault storms so
// retries can win.
const RecoveryCell kRecoveryCells[] = {
    {"conn_loss", fault::site::kNetSendConnLoss,
     {.probability = 1.0, .after_hits = 6, .budget = 1}},
    {"reply_drop", fault::site::kNetReplyDrop, {.budget = 1}},
    {"complete_drop", fault::site::kNetNotifyDropComplete, {.budget = 1}},
    {"enqueued_drop", fault::site::kNetNotifyDropEnqueued,
     {.probability = 0.5}},
    {"task_abort", fault::site::kDevmgrTaskAbort,
     {.probability = 1.0, .after_hits = 1, .budget = 1}},
    {"worker_stall", fault::site::kDevmgrWorkerStall, {.probability = 0.5}},
    {"stage_fail", fault::site::kShmStageFail, {.probability = 0.35}},
};

constexpr int kRecoveryCellCount =
    static_cast<int>(std::size(kRecoveryCells));

// With failure handling armed, a scenario may fail — but only with a code
// that names the failure mode. Anything else (especially kUnimplemented,
// which would mean the duplicate-OpenSession re-ack regressed) is a bug.
bool is_allowed_recovery_code(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
    case StatusCode::kUnavailable:
    case StatusCode::kDeadlineExceeded:
    case StatusCode::kAborted:
    case StatusCode::kFailedPrecondition:
    case StatusCode::kInternal:
    case StatusCode::kResourceExhausted:
    case StatusCode::kCancelled:
    case StatusCode::kNotFound:  // stale handle after a mid-session reconnect
      return true;
    default:
      return false;
  }
}

struct RecoveryDigest {
  std::vector<int> statuses;
  std::vector<std::string> journal;
  std::vector<std::string> fire_log;
  std::int64_t final_vt_ns = 0;

  bool operator==(const RecoveryDigest&) const = default;

  std::string to_string() const {
    std::ostringstream out;
    out << "statuses:";
    for (int code : statuses) out << ' ' << code;
    out << "\nfinal_vt_ns: " << final_vt_ns << "\njournal:";
    for (const auto& entry : journal) out << "\n  " << entry;
    out << "\nfire_log:";
    for (const auto& entry : fire_log) out << "\n  " << entry;
    return out.str();
  }
};

RecoveryDigest run_recovery_scenario(const RecoveryCell& cell,
                                     std::uint64_t seed) {
  fault::ScopedInjection inject(seed);
  inject.site(cell.site, cell.trigger);

  RecoveryDigest digest;
  ManagerRig rig;
  remote::RemoteRuntime runtime({rig.address(recovery_options())});

  workloads::SobelWorkload workload(32, 24);
  ocl::Session session("recovery-app");
  auto context = runtime.create_context("fpga-b", session);
  digest.statuses.push_back(static_cast<int>(context.status().code()));
  if (context.ok()) {
    Status setup = workload.setup(*context.value());
    digest.statuses.push_back(static_cast<int>(setup.code()));
    bool all_ok = setup.ok();
    if (setup.ok()) {
      for (int i = 0; i < 2; ++i) {
        Status request = workload.handle_request(*context.value());
        digest.statuses.push_back(static_cast<int>(request.code()));
        all_ok = all_ok && request.ok();
      }
    }
    if (all_ok) {
      // Integrity: recovery must never paper over corruption.
      EXPECT_EQ(workload.last_output(),
                workloads::sobel_reference(workload.input_frame(), 32, 24))
          << "recovered run produced corrupt output at site " << cell.site;
    }
    workload.teardown();
  }

  // VT watchdog: recovery is bounded. Deadlines + budgeted faults must keep
  // the modeled timeline far below this even on the all-retries path.
  digest.final_vt_ns = (session.now() - vt::Time::zero()).ns();
  EXPECT_LT(digest.final_vt_ns, vt::Duration::seconds(120).ns())
      << "VT watchdog exceeded at site " << cell.site << " seed " << seed;

  for (const auto& record : rig.manager->execution_journal()) {
    std::ostringstream entry;
    entry << record.ready.ns() << '/' << record.client_id << '/' << record.seq
          << (record.ordered ? "" : "/fallback");
    digest.journal.push_back(entry.str());
  }
  digest.fire_log = fault::Injector::instance().fire_log();
  std::sort(digest.fire_log.begin(), digest.fire_log.end());
  return digest;
}

class RecoveryMatrixTest
    : public ::testing::TestWithParam<std::tuple<int, std::uint64_t>> {};

TEST_P(RecoveryMatrixTest, RecoversOrFailsFastDeterministically) {
  const RecoveryCell& cell = kRecoveryCells[std::get<0>(GetParam())];
  const std::uint64_t seed = std::get<1>(GetParam());

  RecoveryDigest first = run_recovery_scenario(cell, seed);
  RecoveryDigest second = run_recovery_scenario(cell, seed);

  for (int code : first.statuses) {
    EXPECT_TRUE(is_allowed_recovery_code(static_cast<StatusCode>(code)))
        << "site " << cell.site << " seed " << seed
        << " surfaced unexpected status code " << code;
  }
  EXPECT_EQ(first, second)
      << "seed " << seed << " diverged at site " << cell.site
      << "\n--- run 1 ---\n" << first.to_string()
      << "\n--- run 2 ---\n" << second.to_string();
}

// Budgeted single faults with retries armed must end in full success — the
// retry actually absorbs the fault rather than merely renaming the error.
TEST(RecoveryMatrixTest, BudgetedTransientFaultsFullyRecover) {
  for (const char* site :
       {fault::site::kNetReplyDrop.name(), fault::site::kShmGrantDeny.name()}) {
    fault::ScopedInjection inject(/*seed=*/1234);
    inject.site(site, {.budget = 1});

    ManagerRig rig;
    remote::RemoteRuntime runtime({rig.address(recovery_options())});
    ocl::Session session("transient-app");
    auto context = runtime.create_context("fpga-b", session);
    ASSERT_TRUE(context.ok())
        << site << ": " << context.status().to_string();
    workloads::SobelWorkload workload(32, 24);
    ASSERT_TRUE(workload.setup(*context.value()).ok()) << site;
    ASSERT_TRUE(workload.handle_request(*context.value()).ok()) << site;
    EXPECT_EQ(workload.last_output(),
              workloads::sobel_reference(workload.input_frame(), 32, 24));
    workload.teardown();
  }
}

TEST(EventPoisoning, FailedEventPoisonsDependents) {
  fault::ScopedInjection inject(/*seed=*/1);
  // First command-queue op aborts mid-task (program tasks use a different
  // site, so session setup is unaffected).
  inject.site(fault::site::kDevmgrTaskAbort, {.probability = 1.0, .budget = 1});

  ManagerRig rig;
  remote::RemoteRuntime runtime({rig.address(recovery_options())});
  ocl::Session session("poison-app");
  auto context = runtime.create_context("fpga-b", session);
  ASSERT_TRUE(context.ok()) << context.status().to_string();

  auto buffer = context.value()->create_buffer(4096);
  ASSERT_TRUE(buffer.ok());
  auto queue = context.value()->create_queue();
  ASSERT_TRUE(queue.ok());

  std::vector<std::uint8_t> data(4096, 0xAB);
  auto event = queue.value()->enqueue_write(buffer.value(), 0, ByteSpan{data},
                                            /*blocking=*/false);
  ASSERT_TRUE(event.ok()) << event.status().to_string();
  ASSERT_TRUE(queue.value()->flush().ok());

  // The injected mid-task abort surfaces as the event's terminal status.
  Status waited = event.value()->wait();
  EXPECT_EQ(waited.code(), StatusCode::kAborted) << waited.to_string();

  // A dependent op may not silently run after its dependency failed: the
  // poisoned wait list is rejected client-side, before anything is sent.
  std::array<ocl::EventPtr, 1> deps = {event.value()};
  auto dependent = queue.value()->enqueue_write(
      buffer.value(), 0, ByteSpan{data}, /*blocking=*/false,
      ocl::EventWaitList{deps});
  EXPECT_EQ(dependent.status().code(), StatusCode::kFailedPrecondition)
      << dependent.status().to_string();
}

TEST(EventPoisoning, LostCompletionTimesOutAndPoisonsDependents) {
  fault::ScopedInjection inject(/*seed=*/1);
  inject.site(fault::site::kNetNotifyDropComplete, {.budget = 1});

  CallOptions options;
  options.timeout = vt::Duration::millis(50);
  options.wedge_grace = std::chrono::milliseconds(150);

  ManagerRig rig;
  remote::RemoteRuntime runtime({rig.address(options)});
  ocl::Session session("timeout-app");
  auto context = runtime.create_context("fpga-b", session);
  ASSERT_TRUE(context.ok()) << context.status().to_string();

  auto buffer = context.value()->create_buffer(4096);
  ASSERT_TRUE(buffer.ok());
  auto queue = context.value()->create_queue();
  ASSERT_TRUE(queue.ok());

  std::vector<std::uint8_t> data(4096, 0xCD);
  auto event = queue.value()->enqueue_write(buffer.value(), 0, ByteSpan{data},
                                            /*blocking=*/false);
  ASSERT_TRUE(event.ok()) << event.status().to_string();
  ASSERT_TRUE(queue.value()->flush().ok());

  // The completion was dropped on the wire; the bounded wait abandons the
  // event at its modeled deadline instead of wedging the caller forever.
  Status waited = event.value()->wait();
  EXPECT_EQ(waited.code(), StatusCode::kDeadlineExceeded)
      << waited.to_string();

  std::array<ocl::EventPtr, 1> deps = {event.value()};
  auto dependent = queue.value()->enqueue_write(
      buffer.value(), 0, ByteSpan{data}, /*blocking=*/false,
      ocl::EventWaitList{deps});
  EXPECT_EQ(dependent.status().code(), StatusCode::kFailedPrecondition)
      << dependent.status().to_string();
}

// --- 5. testbed: probe-driven migration + circuit breaker --------------------

workloads::WorkloadFactory small_sobel_factory() {
  return [] { return std::make_unique<workloads::SobelWorkload>(64, 48); };
}

TEST(GracefulDegradation, ProbesMigrateOffDeadBoardAndBreakerRecovers) {
  testbed::TestbedOptions options;
  options.gateway.max_invoke_attempts = 2;
  options.gateway.breaker_threshold = 2;
  options.gateway.breaker_cooldown = vt::Duration::seconds(1);
  options.call_options.timeout = vt::Duration::seconds(5);
  options.call_options.wedge_grace = std::chrono::milliseconds(150);
  options.gate_stall_grace = std::chrono::milliseconds(200);
  testbed::Testbed bed(options);

  ASSERT_TRUE(bed.deploy_blastfunction("sobel-r", small_sobel_factory()).ok());
  ASSERT_TRUE(bed.gateway().invoke("sobel-r").ok());

  // Find and kill the board the function landed on.
  auto device = bed.registry().device_of_instance("sobel-r-0");
  ASSERT_TRUE(device.has_value());
  std::string dead_node;
  for (const auto& record : bed.registry().devices()) {
    if (record.id == *device) dead_node = record.node;
  }
  ASSERT_FALSE(dead_node.empty());
  bed.manager(dead_node).shutdown();

  // Requests now fail (bounded retry included) and the breaker opens after
  // breaker_threshold consecutive failures...
  EXPECT_FALSE(bed.gateway().invoke("sobel-r").ok());
  EXPECT_FALSE(bed.gateway().invoke("sobel-r").ok());
  EXPECT_TRUE(bed.gateway().is_circuit_open("sobel-r"));

  // ...after which requests are shed without touching a replica (HTTP 503).
  auto shed = bed.gateway().invoke("sobel-r");
  ASSERT_FALSE(shed.ok());
  EXPECT_EQ(shed.status().code(), StatusCode::kUnavailable);
  EXPECT_NE(shed.status().message().find("HTTP 503"), std::string::npos)
      << shed.status().to_string();

  // The registry's liveness sweep needs miss_threshold consecutive misses
  // to declare the board dead, then migrates its instances
  // create-before-delete to a healthy board.
  EXPECT_TRUE(bed.registry().is_device_healthy(*device));
  for (unsigned i = 0; i < options.policy.health.miss_threshold; ++i) {
    bed.registry().probe_devices();
  }
  EXPECT_FALSE(bed.registry().is_device_healthy(*device));

  auto moved = bed.gateway().instance("sobel-r");
  ASSERT_NE(moved, nullptr);
  auto new_device =
      bed.registry().device_of_instance(moved->pod().spec.name);
  ASSERT_TRUE(new_device.has_value());
  EXPECT_NE(*new_device, *device);

  // Half-open trial: once the cooldown has elapsed on the (fresh) replica's
  // clock, one request is admitted; its success closes the circuit.
  moved->advance_clock_to(vt::Time::zero() + vt::Duration::seconds(60));
  auto recovered = bed.gateway().invoke("sobel-r");
  EXPECT_TRUE(recovered.ok()) << recovered.status().to_string();
  EXPECT_FALSE(bed.gateway().is_circuit_open("sobel-r"));

  // The dead board stays out of allocation until a probe succeeds again.
  ASSERT_TRUE(
      bed.deploy_blastfunction("sobel-r2", small_sobel_factory()).ok());
  auto second = bed.registry().device_of_instance("sobel-r2-0");
  ASSERT_TRUE(second.has_value());
  EXPECT_NE(*second, *device);
}

std::string recovery_cell_name(
    const ::testing::TestParamInfo<std::tuple<int, std::uint64_t>>& info) {
  return std::string(kRecoveryCells[std::get<0>(info.param)].label) +
         "_seed" + std::to_string(std::get<1>(info.param));
}

INSTANTIATE_TEST_SUITE_P(
    Cells, RecoveryMatrixTest,
    ::testing::Combine(::testing::Range(0, kRecoveryCellCount),
                       ::testing::Values(std::uint64_t{1}, std::uint64_t{7},
                                         std::uint64_t{1234},
                                         std::uint64_t{987654321})),
    recovery_cell_name);

}  // namespace
}  // namespace bf
