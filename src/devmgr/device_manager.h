// Device Manager: controls and shares one FPGA board (paper §III-B).
//
// Exposes the gRPC-analogue service over a net::ServerEndpoint. A dispatcher
// thread per client connection handles
//   * context & information methods synchronously (session, device info,
//     buffers, kernels, queues), and
//   * command-queue methods by accumulating them into per-(client, queue)
//     tasks; a flush seals the task into the central queue.
// A single worker thread pulls tasks in modeled-FIFO order (or, with
// SchedulerConfig::max_batch > 1, same-kernel batches; see
// devmgr/scheduler.h) and executes them exclusively on the board, notifying
// each operation's event on completion.
// Board reconfiguration is the one synchronous method that rides the central
// queue, blocking all other operations while the board is programmed.
//
// Per-client resource pools (buffers, kernels, queues) provide isolation:
// a client can only ever name its own resources.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"
#include "devmgr/scheduler.h"
#include "devmgr/task.h"
#include "metrics/metrics.h"
#include "net/endpoint.h"
#include "shm/namespace.h"
#include "sim/board.h"

namespace bf::devmgr {

// Worker-side staging of one task's OpComplete notifications: the worker
// resolves the session's connection once, appends encoded completions as ops
// retire, and delivers them through Connection::notify_batch with a single
// consumer wake per task (defined in device_manager.cpp).
struct CompletionBatch;

struct DeviceManagerConfig {
  std::string id;  // e.g. "devmgr-b"
  bool allow_shared_memory = true;
  std::uint64_t shm_segment_bytes = 4ULL * 1024 * 1024 * 1024;
  // Dispatcher handling cost per synchronous method / per command-queue op.
  vt::Duration sync_handling = vt::Duration::micros(60);
  vt::Duration op_handling = vt::Duration::micros(20);
  // Real-time grace before the conservative gate falls back to arrival
  // order (docs/VIRTUAL_TIME.md). Large enough that OS scheduling hiccups
  // on loaded machines never degrade ordering; lower it in tests that
  // intentionally exercise idle-producer liveness.
  std::chrono::milliseconds gate_stall_grace{1000};
  // Record every executed task's (ready, seq, client, ordered) in an
  // in-memory journal. Unbounded — test/audit use only (the fault matrix
  // asserts modeled-FIFO order against it); leave off in load experiments.
  bool record_execution_journal = false;
  // Central-queue scheduling (devmgr/scheduler.h). The default max_batch of
  // 1 reproduces the paper's modeled-FIFO behavior exactly.
  SchedulerConfig scheduler;
};

class DeviceManager {
 public:
  // `board` must outlive the manager. `node_shm` is the hosting node's
  // shared-memory namespace (nullptr => shm unavailable, gRPC data path).
  DeviceManager(DeviceManagerConfig config, sim::Board* board,
                shm::Namespace* node_shm);
  ~DeviceManager();

  DeviceManager(const DeviceManager&) = delete;
  DeviceManager& operator=(const DeviceManager&) = delete;

  [[nodiscard]] const std::string& id() const { return config_.id; }
  [[nodiscard]] net::ServerEndpoint& endpoint() { return endpoint_; }
  [[nodiscard]] sim::Board& board() { return *board_; }
  [[nodiscard]] metrics::Registry& metrics() { return metrics_; }

  // FPGA time utilization over a modeled window: busy / (to - from).
  // This is the metric the Accelerators Registry's gatherer consumes.
  [[nodiscard]] double utilization(vt::Time from, vt::Time to) const;

  // Device busy time attributable to one client within a window (the
  // per-function utilization of paper Table II).
  [[nodiscard]] vt::Duration client_busy_between(const std::string& client_id,
                                                 vt::Time from,
                                                 vt::Time to) const;

  // Raw per-client occupancy intervals overlapping [from, to] (consumed by
  // the trace exporter).
  struct ClientBusy {
    std::string client_id;
    vt::Time start;
    vt::Time end;
  };
  [[nodiscard]] std::vector<ClientBusy> busy_snapshot(vt::Time from,
                                                      vt::Time to) const;

  [[nodiscard]] std::size_t session_count() const;
  [[nodiscard]] std::uint64_t tasks_executed() const;
  [[nodiscard]] std::uint64_t ops_executed() const;

  // One entry per task handed to the worker, in real execution order
  // (populated only when config.record_execution_journal is set). `ordered`
  // is false for pops that bypassed the conservative gate (shutdown drain /
  // stall fallback) and therefore carry no FIFO guarantee.
  struct ExecutionRecord {
    vt::Time ready;
    std::uint64_t seq = 0;
    std::string client_id;
    bool ordered = true;
  };
  [[nodiscard]] std::vector<ExecutionRecord> execution_journal() const;

  // Point-in-time liveness/load snapshot — the in-process twin of the
  // kHealthCheck RPC (the registry's prober uses whichever channel it has).
  // Unavailable once shutdown has begun; a probing registry treats that the
  // same as an unreachable manager.
  struct HealthSnapshot {
    std::size_t queue_depth = 0;   // sealed tasks waiting in the scheduler
    std::size_t sessions = 0;      // open client sessions
    std::uint64_t ops_executed = 0;
    bool accepting = true;
  };
  [[nodiscard]] Result<HealthSnapshot> health();

  // Queued-but-unexecuted tasks discarded because their client vanished.
  [[nodiscard]] std::uint64_t tasks_cancelled() const;

  // Pops that went ahead on the gate's real-time stall-breaker instead of a
  // safe bound (PopReason::kStallFallback; bf_gate_stall_fallbacks_total).
  // Zero in every reproduced figure and table.
  [[nodiscard]] std::uint64_t stall_fallbacks() const;

  // Derives the shared segment name for a session (same formula the remote
  // library uses to open it).
  [[nodiscard]] std::string segment_name(std::uint64_t session_id) const;

  void shutdown();

 private:
  struct Session {
    std::uint64_t id = 0;
    std::string client_id;
    std::shared_ptr<net::Connection> connection;
    std::shared_ptr<shm::Segment> segment;  // null => gRPC data path
    std::map<std::uint64_t, sim::MemHandle> buffers;
    std::map<std::uint64_t, std::string> kernels;  // id -> kernel name
    std::map<std::uint64_t, bool> queues;          // id -> exists
    std::uint64_t next_buffer_id = 1;
    std::uint64_t next_kernel_id = 1;
    std::uint64_t next_queue_id = 1;
    // Tasks under construction, one per command queue.
    std::map<std::uint64_t, Task> building;
    // Completion stamps of executed ops (event wait-list resolution).
    std::map<std::uint64_t, vt::Time> completed_ops;
  };

  void serve_connection(const std::shared_ptr<net::Connection>& connection);
  void worker_loop();

  // Dispatcher-side handlers; they lock state_mutex_ internally.
  void handle_sync(std::uint64_t session_id, const net::Frame& frame);
  void handle_command(std::uint64_t session_id, const net::Frame& frame);
  // Requires state_mutex_ held.
  void seal_task(Session& session, std::uint64_t queue_id, vt::Time ready);

  // Worker-side execution. Every command task runs through one per-task
  // core: a TaskRun (cursor, traced ops, abort flag, staged completions)
  // advanced op by op through admit_op / finish_op, which own the abort
  // fault site, wait-list resolution, accounting and completion staging.
  struct TaskRun;  // defined in device_manager.cpp
  // Board reconfiguration (the synchronous kProgram method).
  void execute_program(const Task& task);
  // Runs the task's ops in order.
  void execute_task(const Task& task);
  // Executes a batchable lead task plus its coalesced companions as one
  // board pass (max_batch > 1; devmgr/scheduler.h): phase A transfers,
  // one Board::run_kernel_batch, phase C reads — over the same core.
  void execute_batch(const Task& lead, const std::vector<Task>& companions);
  TaskRun start_run(const Task& task);
  // admit_op + execute_operation + finish_op.
  void run_op(TaskRun& run, const Operation& op);
  // Consults the abort fault site and resolves the op's event wait list.
  // Returns the op's ready stamp, or nullopt after retiring an op that must
  // not execute (injected abort, unmet dependency).
  std::optional<vt::Time> admit_op(TaskRun& run, const Operation& op);
  // Retires one op: books a successful interval, counts the op (and the
  // task on its last op), records the task's spans after its last op, and
  // stages the completion. Ops retired without an execution attempt
  // (`attempted` false) leave the task-span histogram and busy gauge alone.
  void finish_op(TaskRun& run, const Operation& op,
                 const Result<sim::Board::Interval>& outcome,
                 proto::OpComplete& completion, bool attempted);
  void record_task_spans(const TaskRun& run);
  // Returns the op's exclusive board occupancy interval.
  Result<sim::Board::Interval> execute_operation(
      std::uint64_t session_id, const Operation& op, vt::Time ready,
      proto::OpComplete& completion);
  // Encodes the completion into `batch` (consuming completion.data into the
  // arena); flush_completions delivers the whole task's worth in one wake.
  void stage_completion(CompletionBatch& batch, std::uint64_t session_id,
                        std::uint64_t op_id, proto::OpComplete& completion,
                        vt::Time at);
  void flush_completions(CompletionBatch& batch);

  Result<sim::KernelLaunch> resolve_kernel(std::uint64_t session_id,
                                           const Operation& op);

  void cleanup_session(std::uint64_t session_id);

  DeviceManagerConfig config_;
  sim::Board* board_;
  shm::Namespace* node_shm_;
  net::ServerEndpoint endpoint_;
  Scheduler scheduler_;
  metrics::Registry metrics_;

  mutable std::mutex state_mutex_;
  std::map<std::uint64_t, Session> sessions_;
  std::uint64_t next_session_id_ = 1;
  std::uint64_t next_task_seq_ = 1;
  std::uint64_t tasks_executed_ = 0;
  std::uint64_t ops_executed_ = 0;
  std::uint64_t tasks_cancelled_ = 0;
  struct BusyRecord {
    std::string client_id;
    sim::Board::Interval interval;
  };
  std::vector<BusyRecord> busy_records_;
  std::vector<ExecutionRecord> journal_;  // see record_execution_journal

  std::mutex threads_mutex_;
  std::vector<std::thread> dispatchers_;
  std::thread worker_;
  std::atomic<bool> shutdown_{false};

  // Metric handles (created once, updated by the worker).
  std::shared_ptr<metrics::Counter> tasks_counter_;
  std::shared_ptr<metrics::Counter> ops_counter_;
  std::shared_ptr<metrics::Counter> reconfig_counter_;
  std::shared_ptr<metrics::Gauge> busy_ms_gauge_;
  std::shared_ptr<metrics::Gauge> sessions_gauge_;
  std::shared_ptr<metrics::Histogram> task_span_ms_;
  std::shared_ptr<metrics::Gauge> queue_depth_gauge_;
  std::shared_ptr<metrics::Counter> health_probes_counter_;
  std::shared_ptr<metrics::Counter> tasks_cancelled_counter_;
  std::shared_ptr<metrics::Counter> stall_fallbacks_counter_;
};

}  // namespace bf::devmgr
