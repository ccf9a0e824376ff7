#include "devmgr/device_manager.h"

#include <algorithm>

#include "common/arena.h"
#include "common/log.h"
#include "fault/injector.h"
#include "native/native_runtime.h"
#include "proto/messages.h"
#include "sim/bitstream.h"
#include "sim/kernels.h"
#include "trace/span.h"

namespace bf::devmgr {
namespace {

proto::DeviceDescriptor describe(const sim::Board& board) {
  const ocl::DeviceInfo info = native::describe_board(board);
  proto::DeviceDescriptor descriptor;
  descriptor.id = info.id;
  descriptor.name = info.name;
  descriptor.vendor = info.vendor;
  descriptor.platform = info.platform;
  descriptor.node = info.node;
  descriptor.accelerator = info.accelerator;
  descriptor.global_memory_bytes = info.global_memory_bytes;
  return descriptor;
}

// Free list for per-task op vectors: sealing hands the vector (and each op's
// staged write payload) to the worker, which retires both back to the pools
// after execution, so steady-state request streams reuse the same storage.
arena::Pool<std::vector<Operation>>& op_vector_pool() {
  static arena::Pool<std::vector<Operation>> pool;
  return pool;
}

// Routes a freshly decoded command-queue op into its building task,
// reviving a pooled op vector on the task's first op. state_mutex_ held.
void append_op(std::map<std::uint64_t, Task>& building, Operation op) {
  Task& task = building[op.queue_id];
  if (task.ops.capacity() == 0) task.ops = op_vector_pool().acquire();
  task.ops.push_back(std::move(op));
}

// Returns an executed (or cancelled) task's per-request storage to the
// pools. The ops vector keeps its capacity; staged write payloads keep
// their heap blocks.
void retire_task_storage(Task& task) {
  for (Operation& op : task.ops) {
    if (op.inline_data.is_heap()) {
      arena::recycle(std::move(op.inline_data));
    }
  }
  if (task.ops.capacity() != 0) {
    op_vector_pool().recycle(std::move(task.ops));
  }
}

}  // namespace

// See device_manager.h: one instance per task in flight.
struct CompletionBatch {
  std::shared_ptr<net::Connection> connection;
  bool resolved = false;  // connection lookup done (session may be gone)
  std::vector<net::Completion> staged;
};

// See device_manager.h: the worker's state for one task in flight.
struct DeviceManager::TaskRun {
  struct ExecutedOp {
    const Operation* op;
    sim::Board::Interval interval;
  };
  const Task* task = nullptr;
  std::string client_id;           // busy-interval attribution
  trace::SpanContext request_ctx;  // the task's request (first traced op)
  bool traced = false;
  std::vector<ExecutedOp> executed;  // successful ops; filled only if traced
  vt::Time cursor;                   // completion of the last successful op
  bool abort_rest = false;           // injected abort: fail remaining ops
  // Completions are staged per op and delivered once at the end of the
  // task: one consumer wake instead of one per op. Safe because the worker
  // never depends on the client observing an earlier op mid-task, and the
  // frame stamps (and the gate wake bounds anchored inside notify_batch)
  // are identical to per-op delivery.
  CompletionBatch completions;
};

DeviceManager::DeviceManager(DeviceManagerConfig config, sim::Board* board,
                             shm::Namespace* node_shm)
    : config_(std::move(config)),
      board_(board),
      node_shm_(node_shm),
      endpoint_(config_.id),
      scheduler_(config_.scheduler) {
  BF_CHECK(board_ != nullptr);
  const metrics::Labels labels{{"device", board_->id()},
                               {"manager", config_.id}};
  tasks_counter_ = metrics_.counter("bf_devmgr_tasks_total", labels);
  ops_counter_ = metrics_.counter("bf_devmgr_ops_total", labels);
  reconfig_counter_ = metrics_.counter("bf_devmgr_reconfigurations_total",
                                       labels);
  busy_ms_gauge_ = metrics_.gauge("bf_devmgr_busy_ms", labels);
  sessions_gauge_ = metrics_.gauge("bf_devmgr_sessions", labels);
  task_span_ms_ = metrics_.histogram("bf_devmgr_task_span_ms", labels);
  queue_depth_gauge_ = metrics_.gauge("bf_devmgr_queue_depth", labels);
  health_probes_counter_ =
      metrics_.counter("bf_devmgr_health_probes_total", labels);
  tasks_cancelled_counter_ =
      metrics_.counter("bf_devmgr_tasks_cancelled_total", labels);
  stall_fallbacks_counter_ =
      metrics_.counter("bf_gate_stall_fallbacks_total", labels);

  endpoint_.gate().set_stall_grace(config_.gate_stall_grace);
  endpoint_.set_handler([this](std::shared_ptr<net::Connection> connection) {
    std::lock_guard lock(threads_mutex_);
    if (shutdown_.load()) {
      connection->close();
      return;
    }
    dispatchers_.emplace_back([this, connection = std::move(connection)] {
      serve_connection(connection);
    });
  });
  worker_ = std::thread([this] { worker_loop(); });
}

DeviceManager::~DeviceManager() { shutdown(); }

void DeviceManager::shutdown() {
  if (shutdown_.exchange(true)) return;
  endpoint_.shutdown();  // closes connections and the gate
  scheduler_.close();
  if (worker_.joinable()) worker_.join();
  std::vector<std::thread> dispatchers;
  {
    std::lock_guard lock(threads_mutex_);
    dispatchers.swap(dispatchers_);
  }
  for (std::thread& thread : dispatchers) {
    if (thread.joinable()) thread.join();
  }
}

double DeviceManager::utilization(vt::Time from, vt::Time to) const {
  if (to <= from) return 0.0;
  const vt::Duration busy = board_->busy_between(from, to);
  return busy.sec() / (to - from).sec();
}

std::size_t DeviceManager::session_count() const {
  std::lock_guard lock(state_mutex_);
  return sessions_.size();
}

std::uint64_t DeviceManager::tasks_executed() const {
  std::lock_guard lock(state_mutex_);
  return tasks_executed_;
}

std::uint64_t DeviceManager::ops_executed() const {
  std::lock_guard lock(state_mutex_);
  return ops_executed_;
}

std::vector<DeviceManager::ExecutionRecord> DeviceManager::execution_journal()
    const {
  std::lock_guard lock(state_mutex_);
  return journal_;
}

vt::Duration DeviceManager::client_busy_between(const std::string& client_id,
                                                vt::Time from,
                                                vt::Time to) const {
  std::lock_guard lock(state_mutex_);
  vt::Duration total = vt::Duration::nanos(0);
  for (const BusyRecord& record : busy_records_) {
    if (record.client_id != client_id) continue;
    const vt::Time lo = vt::max(record.interval.start, from);
    const vt::Time hi = record.interval.end < to ? record.interval.end : to;
    if (lo < hi) total += hi - lo;
  }
  return total;
}

std::vector<DeviceManager::ClientBusy> DeviceManager::busy_snapshot(
    vt::Time from, vt::Time to) const {
  std::lock_guard lock(state_mutex_);
  std::vector<ClientBusy> out;
  for (const BusyRecord& record : busy_records_) {
    if (record.interval.end <= from || record.interval.start >= to) continue;
    out.push_back(ClientBusy{record.client_id, record.interval.start,
                             record.interval.end});
  }
  return out;
}

Result<DeviceManager::HealthSnapshot> DeviceManager::health() {
  if (shutdown_.load()) {
    return Unavailable("device manager " + config_.id + " is shut down");
  }
  HealthSnapshot snapshot;
  snapshot.queue_depth = scheduler_.size();
  snapshot.accepting = true;
  {
    std::lock_guard lock(state_mutex_);
    snapshot.sessions = sessions_.size();
    snapshot.ops_executed = ops_executed_;
  }
  health_probes_counter_->increment();
  queue_depth_gauge_->set(static_cast<double>(snapshot.queue_depth));
  return snapshot;
}

std::uint64_t DeviceManager::tasks_cancelled() const {
  std::lock_guard lock(state_mutex_);
  return tasks_cancelled_;
}

std::uint64_t DeviceManager::stall_fallbacks() const {
  return static_cast<std::uint64_t>(stall_fallbacks_counter_->value());
}

std::string DeviceManager::segment_name(std::uint64_t session_id) const {
  return config_.id + ":sess:" + std::to_string(session_id);
}

// --- Dispatcher ----------------------------------------------------------------

void DeviceManager::serve_connection(
    const std::shared_ptr<net::Connection>& connection) {
  std::uint64_t session_id = 0;

  while (auto frame = connection->next_request()) {
    // Session must be opened first.
    if (session_id == 0) {
      if (frame->method != proto::Method::kOpenSession) {
        proto::AckResp resp;
        resp.status = proto::StatusMsg::from(
            FailedPrecondition("session not opened"));
        connection->reply(*frame, proto::encode(resp),
                          frame->arrival_time + config_.sync_handling);
        continue;
      }
      auto request =
          proto::decode<proto::OpenSessionReq>(ByteSpan{frame->payload});
      proto::OpenSessionResp resp;
      if (!request.ok()) {
        resp.status = proto::StatusMsg::from(request.status());
        connection->reply(*frame, proto::encode(resp),
                          frame->arrival_time + config_.sync_handling);
        continue;
      }
      Session session;
      session.client_id = request.value().client_id;
      session.connection = connection;
      {
        std::lock_guard lock(state_mutex_);
        session.id = next_session_id_++;
        session_id = session.id;
      }
      bool shm_granted = false;
      if (request.value().use_shared_memory && config_.allow_shared_memory &&
          node_shm_ != nullptr) {
        auto segment =
            node_shm_->create(segment_name(session_id),
                              board_->host().memcpy_model,
                              config_.shm_segment_bytes,
                              board_->functional());
        if (segment.ok()) {
          session.segment = segment.value();
          shm_granted = true;
        } else {
          BF_LOG_WARN("devmgr") << config_.id << ": shm denied for "
                                << session.client_id << ": "
                                << segment.status().to_string();
        }
      }
      {
        std::lock_guard lock(state_mutex_);
        sessions_.emplace(session_id, std::move(session));
        sessions_gauge_->set(static_cast<double>(sessions_.size()));
      }
      resp.session_id = session_id;
      resp.shared_memory_granted = shm_granted;
      resp.device = describe(*board_);
      connection->reply(*frame, proto::encode(resp),
                        frame->arrival_time + config_.sync_handling);
      continue;
    }

    if (frame->method == proto::Method::kOpenSession) {
      // Duplicate open on an established connection: the first reply was
      // lost (or dropped by fault injection) and the client retried. Re-ack
      // the existing session instead of opening a second one — this is what
      // makes OpenSession idempotent (proto::is_idempotent).
      proto::OpenSessionResp resp;
      {
        std::lock_guard lock(state_mutex_);
        auto it = sessions_.find(session_id);
        if (it != sessions_.end()) {
          resp.session_id = session_id;
          resp.shared_memory_granted = it->second.segment != nullptr;
        } else {
          resp.status = proto::StatusMsg::from(
              Unavailable("session torn down during open retry"));
        }
      }
      resp.device = describe(*board_);
      connection->reply(*frame, proto::encode(resp),
                        frame->arrival_time + config_.sync_handling);
      continue;
    }

    if (proto::is_command_queue_method(frame->method)) {
      handle_command(session_id, *frame);
    } else {
      handle_sync(session_id, *frame);
    }
    // The handlers decoded everything they need out of the payload
    // (WriteData bodies are copied into the op's staging buffer); the
    // frame's heap block goes back to the pool the client's encoder drew
    // it from.
    arena::recycle(std::move(frame->payload));
  }

  if (session_id != 0) cleanup_session(session_id);
}

void DeviceManager::handle_sync(std::uint64_t session_id,
                                const net::Frame& frame) {
  const vt::Time at = frame.arrival_time + config_.sync_handling;
  std::unique_lock lock(state_mutex_);
  auto session_it = sessions_.find(session_id);
  if (session_it == sessions_.end()) return;
  Session& session = session_it->second;
  auto connection = session.connection;
  if (frame.trace.is_valid() && trace::enabled()) {
    // Server-side handling span, child of the client's rpc span. Salted
    // with the arrival stamp so retried attempts get distinct span ids.
    const trace::SpanContext ctx = frame.trace.child(
        trace::salt::kHandle ^
        static_cast<std::uint64_t>(frame.arrival_time.ns()));
    trace::record(trace::Span{
        config_.id,
        std::string("handle:") + std::string(proto::to_string(frame.method)),
        frame.arrival_time, at, ctx.trace_id, ctx.span_id,
        frame.trace.span_id});
  }
  switch (frame.method) {
    case proto::Method::kGetDeviceInfo: {
      proto::OpenSessionResp resp;
      resp.session_id = session.id;
      resp.shared_memory_granted = session.segment != nullptr;
      resp.device = describe(*board_);
      connection->reply(frame, proto::encode(resp), at);
      return;
    }
    case proto::Method::kProgram: {
      auto request = proto::decode<proto::ProgramReq>(ByteSpan{frame.payload});
      proto::ProgramResp resp;
      if (!request.ok()) {
        resp.status = proto::StatusMsg::from(request.status());
        connection->reply(frame, proto::encode(resp), at);
        return;
      }
      const sim::Bitstream* bitstream =
          sim::BitstreamLibrary::standard().find(request.value().bitstream_id);
      if (bitstream == nullptr) {
        resp.status = proto::StatusMsg::from(NotFound(
            "unknown bitstream '" + request.value().bitstream_id + "'"));
        connection->reply(frame, proto::encode(resp), at);
        return;
      }
      const auto resident = board_->resident_accelerators();
      if (std::find(resident.begin(), resident.end(),
                    bitstream->accelerator) != resident.end()) {
        resp.reconfigured = false;  // already resident (region or full image)
        connection->reply(frame, proto::encode(resp), at);
        return;
      }
      Task task;
      task.is_program = true;
      task.bitstream_id = bitstream->id;
      task.session_id = session.id;
      task.client_id = session.client_id;
      task.ready = at;
      task.program_waiter = std::make_shared<ProgramWaiter>();
      task.seq = next_task_seq_++;
      auto waiter = task.program_waiter;
      if (Status pushed = scheduler_.push(std::move(task)); !pushed.ok()) {
        // Shutdown race: the queue rejected the task; complete the waiter
        // ourselves so the dispatcher below unblocks with a status.
        waiter->complete(pushed, at);
      }
      // Hand the frame's gate hold over to the queued task before blocking,
      // otherwise the worker could never reach the task's stamp.
      connection->done_processing();
      lock.unlock();  // the worker needs state_mutex_ to wipe buffers
      auto [status, end] = waiter->wait();
      resp.status = proto::StatusMsg::from(status);
      resp.reconfigured = status.ok();
      connection->reply(frame, proto::encode(resp), vt::max(end, at));
      return;
    }
    case proto::Method::kCreateBuffer: {
      auto request =
          proto::decode<proto::CreateBufferReq>(ByteSpan{frame.payload});
      proto::CreateBufferResp resp;
      if (!request.ok()) {
        resp.status = proto::StatusMsg::from(request.status());
      } else {
        auto handle = board_->allocate(request.value().size);
        if (!handle.ok()) {
          resp.status = proto::StatusMsg::from(handle.status());
        } else {
          const std::uint64_t id = session.next_buffer_id++;
          session.buffers[id] = handle.value();
          resp.buffer_id = id;
        }
      }
      connection->reply(frame, proto::encode(resp), at);
      return;
    }
    case proto::Method::kReleaseBuffer: {
      auto request =
          proto::decode<proto::ReleaseBufferReq>(ByteSpan{frame.payload});
      proto::AckResp resp;
      if (!request.ok()) {
        resp.status = proto::StatusMsg::from(request.status());
      } else {
        auto it = session.buffers.find(request.value().buffer_id);
        if (it == session.buffers.end()) {
          resp.status = proto::StatusMsg::from(
              NotFound("unknown buffer " +
                       std::to_string(request.value().buffer_id)));
        } else {
          Status released = board_->release(it->second);
          session.buffers.erase(it);
          resp.status = proto::StatusMsg::from(released);
        }
      }
      connection->reply(frame, proto::encode(resp), at);
      return;
    }
    case proto::Method::kCreateKernel: {
      auto request =
          proto::decode<proto::CreateKernelReq>(ByteSpan{frame.payload});
      proto::CreateKernelResp resp;
      if (!request.ok()) {
        resp.status = proto::StatusMsg::from(request.status());
      } else if (!board_->has_kernel(request.value().name)) {
        resp.status = proto::StatusMsg::from(NotFound(
            "kernel '" + request.value().name + "' not in bitstream"));
      } else {
        const sim::KernelModel* model =
            sim::KernelRegistry::standard().find(request.value().name);
        BF_CHECK(model != nullptr);
        const std::uint64_t id = session.next_kernel_id++;
        session.kernels[id] = request.value().name;
        resp.kernel_id = id;
        resp.arity = model->arity();
      }
      connection->reply(frame, proto::encode(resp), at);
      return;
    }
    case proto::Method::kCreateQueue: {
      proto::CreateQueueResp resp;
      const std::uint64_t id = session.next_queue_id++;
      session.queues[id] = true;
      resp.queue_id = id;
      connection->reply(frame, proto::encode(resp), at);
      return;
    }
    case proto::Method::kReleaseQueue: {
      proto::AckResp resp;
      connection->reply(frame, proto::encode(resp), at);
      return;
    }
    case proto::Method::kHealthCheck: {
      proto::HealthResp resp;
      resp.queue_depth = scheduler_.size();
      resp.sessions = sessions_.size();
      resp.ops_executed = ops_executed_;
      resp.accepting = !shutdown_.load();
      health_probes_counter_->increment();
      queue_depth_gauge_->set(static_cast<double>(resp.queue_depth));
      connection->reply(frame, proto::encode(resp), at);
      return;
    }
    default: {
      proto::AckResp resp;
      resp.status = proto::StatusMsg::from(
          Unimplemented(std::string("method ") +
                        std::string(proto::to_string(frame.method))));
      connection->reply(frame, proto::encode(resp), at);
      return;
    }
  }
}

void DeviceManager::handle_command(std::uint64_t session_id,
                                   const net::Frame& frame) {
  const vt::Time at = frame.arrival_time + config_.op_handling;
  std::lock_guard lock(state_mutex_);
  auto session_it = sessions_.find(session_id);
  if (session_it == sessions_.end()) return;
  Session& session = session_it->second;
  auto connection = session.connection;
  auto ack_enqueued = [&](std::uint64_t op_id) {
    proto::OpEnqueued ack;
    ack.op_id = op_id;
    if (Status sent = connection->notify(proto::Method::kOpEnqueued, op_id,
                                         proto::encode(ack), at);
        !sent.ok()) {
      // Client already gone: its events will be poisoned by the connection
      // loss, not by this ack, so the drop is benign but worth a trace.
      BF_LOG_WARN("devmgr") << config_.id << ": OpEnqueued for op " << op_id
                            << " undeliverable: " << sent.to_string();
    }
  };

  switch (frame.method) {
    case proto::Method::kEnqueueWrite: {
      auto request =
          proto::decode<proto::EnqueueWriteReq>(ByteSpan{frame.payload});
      if (!request.ok()) return;
      Operation op;
      op.kind = Operation::Kind::kWrite;
      op.op_id = request.value().op_id;
      op.queue_id = request.value().queue_id;
      op.buffer_id = request.value().buffer_id;
      op.offset = request.value().offset;
      op.size = request.value().size;
      op.wait_op_ids = std::move(request.value().wait_op_ids);
      op.trace = trace::SpanContext{request.value().trace_id,
                                    request.value().parent_span};
      append_op(session.building, std::move(op));
      ack_enqueued(request.value().op_id);
      return;
    }
    case proto::Method::kWriteData: {
      auto request = proto::decode<proto::WriteData>(ByteSpan{frame.payload});
      if (!request.ok()) return;
      // Find the pending write op (BUFFER phase of its state machine).
      for (auto& [queue_id, task] : session.building) {
        for (Operation& op : task.ops) {
          if (op.op_id == request.value().op_id &&
              op.kind == Operation::Kind::kWrite && !op.data_ready) {
            op.shm_slot = request.value().shm_slot;
            op.inline_data = std::move(request.value().data);
            op.use_shm = request.value().shm_slot >= 0;
            op.data_ready = true;
            return;
          }
        }
      }
      BF_LOG_WARN("devmgr") << config_.id << ": WriteData for unknown op "
                            << request.value().op_id;
      return;
    }
    case proto::Method::kEnqueueRead: {
      auto request =
          proto::decode<proto::EnqueueReadReq>(ByteSpan{frame.payload});
      if (!request.ok()) return;
      Operation op;
      op.kind = Operation::Kind::kRead;
      op.op_id = request.value().op_id;
      op.queue_id = request.value().queue_id;
      op.buffer_id = request.value().buffer_id;
      op.offset = request.value().offset;
      op.size = request.value().size;
      op.use_shm = request.value().use_shared_memory;
      op.wait_op_ids = std::move(request.value().wait_op_ids);
      op.trace = trace::SpanContext{request.value().trace_id,
                                    request.value().parent_span};
      append_op(session.building, std::move(op));
      ack_enqueued(request.value().op_id);
      return;
    }
    case proto::Method::kEnqueueKernel: {
      auto request =
          proto::decode<proto::EnqueueKernelReq>(ByteSpan{frame.payload});
      if (!request.ok()) return;
      Operation op;
      op.kind = Operation::Kind::kKernel;
      op.op_id = request.value().op_id;
      op.queue_id = request.value().queue_id;
      op.kernel_id = request.value().kernel_id;
      op.args = std::move(request.value().args);
      op.global_size = request.value().global_size;
      op.wait_op_ids = std::move(request.value().wait_op_ids);
      op.trace = trace::SpanContext{request.value().trace_id,
                                    request.value().parent_span};
      append_op(session.building, std::move(op));
      ack_enqueued(request.value().op_id);
      return;
    }
    case proto::Method::kFlush: {
      auto request = proto::decode<proto::FlushReq>(ByteSpan{frame.payload});
      if (!request.ok()) return;
      seal_task(session, request.value().queue_id, at);
      return;
    }
    case proto::Method::kFinish: {
      auto request = proto::decode<proto::FinishReq>(ByteSpan{frame.payload});
      if (!request.ok()) return;
      Operation marker;
      marker.kind = Operation::Kind::kFinish;
      marker.op_id = request.value().op_id;
      marker.queue_id = request.value().queue_id;
      append_op(session.building, std::move(marker));
      seal_task(session, request.value().queue_id, at);
      return;
    }
    default:
      return;
  }
}

// Called with state_mutex_ held.
void DeviceManager::seal_task(Session& session, std::uint64_t queue_id,
                              vt::Time ready) {
  auto it = session.building.find(queue_id);
  if (it == session.building.end() || it->second.empty()) return;
  Task task = std::move(it->second);
  session.building.erase(it);
  task.session_id = session.id;
  task.client_id = session.client_id;
  task.queue_id = queue_id;
  task.ready = ready;
  task.seq = next_task_seq_++;
  // Batching metadata: a task qualifies iff it is one dependency-free
  // kernel launch (plus its transfers) moving a small number of bytes. The
  // kernel id resolves to a name here, where the session map is at hand.
  std::size_t kernel_ops = 0;
  bool dependency_free = true;
  std::uint64_t transfer_bytes = 0;
  std::string kernel_name;
  for (const Operation& op : task.ops) {
    if (!op.wait_op_ids.empty()) dependency_free = false;
    if (op.kind == Operation::Kind::kKernel) {
      ++kernel_ops;
      auto kernel_it = session.kernels.find(op.kernel_id);
      if (kernel_it != session.kernels.end()) kernel_name = kernel_it->second;
    } else if (op.kind == Operation::Kind::kWrite ||
               op.kind == Operation::Kind::kRead) {
      transfer_bytes += op.size;
    }
  }
  if (kernel_ops == 1 && dependency_free && !kernel_name.empty() &&
      transfer_bytes <= kBatchSmallBytes) {
    task.batchable = true;
    task.batch_key = kernel_name;
  }
  std::vector<std::uint64_t> op_ids;
  op_ids.reserve(task.ops.size());
  for (const Operation& op : task.ops) op_ids.push_back(op.op_id);
  if (Status pushed = scheduler_.push(std::move(task)); !pushed.ok()) {
    // Shutdown race: the central queue already closed. Fail every op's
    // event with the rejection status so no client event is left hanging
    // in FIRST/BUFFER (push-after-close must reject, never silently queue).
    for (const std::uint64_t op_id : op_ids) {
      proto::OpComplete completion;
      completion.op_id = op_id;
      completion.status = proto::StatusMsg::from(pushed);
      if (session.connection != nullptr && !session.connection->closed()) {
        if (Status sent = session.connection->notify(
                proto::Method::kOpComplete, op_id, proto::encode(completion),
                ready);
            !sent.ok()) {
          BF_LOG_WARN("devmgr")
              << config_.id << ": rejection notice for op " << op_id
              << " undeliverable: " << sent.to_string();
        }
      }
    }
  }
}

// --- Worker ---------------------------------------------------------------------

void DeviceManager::worker_loop() {
  for (;;) {
    // A batching pop chooses among the tasks that arrive by the time the
    // board frees; FIFO pops its head and needs no board lookup.
    const vt::Time board_free = config_.scheduler.max_batch > 1
                                    ? board_->busy_until()
                                    : vt::Time::zero();
    PopResult next = scheduler_.pop_next_safe(endpoint_.gate(), board_free);
    if (!next.task.has_value()) break;  // closed and drained
    if (next.reason == PopReason::kStallFallback) {
      stall_fallbacks_counter_->increment();
    }
    if (config_.record_execution_journal) {
      const bool ordered = next.reason == PopReason::kSafe;
      std::lock_guard lock(state_mutex_);
      journal_.push_back(ExecutionRecord{next.task->ready, next.task->seq,
                                         next.task->client_id, ordered});
      for (const Task& companion : next.batch) {
        journal_.push_back(ExecutionRecord{companion.ready, companion.seq,
                                           companion.client_id, ordered});
      }
    }
    if (fault::should_fire(fault::site::kDevmgrWorkerStall)) {
      // Real-time stall only: virtual stamps are untouched, so the modeled
      // trace must come out identical while thread interleavings get
      // shaken (the sanitizers' favorite food).
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    if (next.task->is_program) {
      execute_program(*next.task);
    } else if (next.batch.empty()) {
      execute_task(*next.task);
    } else {
      execute_batch(*next.task, next.batch);
    }
    retire_task_storage(*next.task);
    for (Task& companion : next.batch) {
      retire_task_storage(companion);
    }
  }
}

void DeviceManager::execute_program(const Task& task) {
  if (fault::should_fire(fault::site::kDevmgrReconfigAbort)) {
    // Aborted before the board was touched: resident image and every
    // client buffer stay intact, the requester sees a terminal status.
    task.program_waiter->complete(
        Aborted("injected fault: reconfiguration aborted"), task.ready);
    return;
  }
  const sim::Bitstream* bitstream =
      sim::BitstreamLibrary::standard().find(task.bitstream_id);
  if (bitstream == nullptr) {
    task.program_waiter->complete(
        NotFound("unknown bitstream '" + task.bitstream_id + "'"), task.ready);
    return;
  }
  // ensure_accelerator dedupes racing program requests (no-op when the
  // image is already resident), uses a partial-reconfiguration region in
  // space-sharing mode, and falls back to a full reprogram otherwise.
  bool wiped_memory = false;
  auto interval =
      board_->ensure_accelerator(*bitstream, task.ready, &wiped_memory);
  if (!interval.ok()) {
    task.program_waiter->complete(interval.status(), task.ready);
    return;
  }
  if (wiped_memory) {
    // Full reconfiguration wiped DDR: every client's buffers are gone.
    std::lock_guard lock(state_mutex_);
    for (auto& [id, session] : sessions_) {
      session.buffers.clear();
    }
  }
  if (interval.value().end > interval.value().start) {
    reconfig_counter_->increment();
  }
  task.program_waiter->complete(Status::Ok(), interval.value().end);
}

DeviceManager::TaskRun DeviceManager::start_run(const Task& task) {
  TaskRun run;
  run.task = &task;
  run.cursor = task.ready;
  {
    std::lock_guard lock(state_mutex_);
    auto session_it = sessions_.find(task.session_id);
    if (session_it != sessions_.end()) {
      run.client_id = session_it->second.client_id;
    }
  }
  // Request context for the task's spans: ops of one task come from one
  // request in practice (each invocation seals its own flush), so the first
  // traced op carries it. Only *successful* ops earn spans — aborted,
  // poisoned or cancelled ops leave no trace (a tested invariant).
  for (const Operation& op : task.ops) {
    if (op.trace.is_valid()) {
      run.request_ctx = op.trace;
      break;
    }
  }
  run.traced = run.request_ctx.is_valid() && trace::enabled();
  return run;
}

void DeviceManager::execute_task(const Task& task) {
  TaskRun run = start_run(task);
  for (const Operation& op : task.ops) run_op(run, op);
  flush_completions(run.completions);
}

void DeviceManager::execute_batch(const Task& lead,
                                  const std::vector<Task>& companions) {
  // The scheduler only coalesces batchable tasks: one dependency-free kernel
  // launch each (devmgr/scheduler.h). Phase A runs every task's pre-kernel
  // transfers in batch order, the kernel launches execute as one board pass,
  // and phase C runs the post-kernel ops — preserving each client's op order
  // and the per-op completion/metrics/span semantics of an unbatched task.
  std::vector<TaskRun> runs;
  runs.reserve(1 + companions.size());
  runs.push_back(start_run(lead));
  for (const Task& companion : companions) {
    runs.push_back(start_run(companion));
  }
  auto kernel_index = [](const TaskRun& run) {
    const std::vector<Operation>& ops = run.task->ops;
    return static_cast<std::size_t>(
        std::find_if(ops.begin(), ops.end(),
                     [](const Operation& op) {
                       return op.kind == Operation::Kind::kKernel;
                     }) -
        ops.begin());
  };

  // Phase A: pre-kernel transfers, batch order.
  for (TaskRun& run : runs) {
    const std::size_t kernel = kernel_index(run);
    for (std::size_t i = 0; i < kernel; ++i) run_op(run, run.task->ops[i]);
  }

  // The coalesced kernel pass: one launch overhead for the whole batch. A
  // task aborted or failed during phase A drops out; its kernel op fails.
  std::vector<TaskRun*> live;
  std::vector<sim::KernelLaunch> launches;
  vt::Time pass_ready = vt::Time::zero();
  for (TaskRun& run : runs) {
    const Operation& op = run.task->ops[kernel_index(run)];
    const std::optional<vt::Time> ready = admit_op(run, op);
    if (!ready.has_value()) continue;
    auto launch = resolve_kernel(run.task->session_id, op);
    if (!launch.ok()) {
      proto::OpComplete completion;
      completion.op_id = op.op_id;
      finish_op(run, op, launch.status(), completion, /*attempted=*/true);
      continue;
    }
    live.push_back(&run);
    launches.push_back(std::move(launch.value()));
    pass_ready = vt::max(pass_ready, *ready);
  }
  if (!live.empty()) {
    auto intervals = board_->run_kernel_batch(launches, pass_ready);
    for (std::size_t i = 0; i < live.size(); ++i) {
      TaskRun& run = *live[i];
      const Operation& op = run.task->ops[kernel_index(run)];
      proto::OpComplete completion;
      completion.op_id = op.op_id;
      if (intervals.ok()) {
        finish_op(run, op, intervals.value()[i], completion,
                  /*attempted=*/true);
      } else {
        finish_op(run, op, intervals.status(), completion,
                  /*attempted=*/true);
      }
    }
  }

  // Phase C: post-kernel ops (reads, finish markers), batch order.
  for (TaskRun& run : runs) {
    for (std::size_t i = kernel_index(run) + 1; i < run.task->ops.size();
         ++i) {
      run_op(run, run.task->ops[i]);
    }
  }

  for (TaskRun& run : runs) {
    flush_completions(run.completions);
  }
}

void DeviceManager::run_op(TaskRun& run, const Operation& op) {
  const std::optional<vt::Time> ready = admit_op(run, op);
  if (!ready.has_value()) return;
  proto::OpComplete completion;
  completion.op_id = op.op_id;
  auto interval =
      execute_operation(run.task->session_id, op, *ready, completion);
  finish_op(run, op, interval, completion, /*attempted=*/true);
}

std::optional<vt::Time> DeviceManager::admit_op(TaskRun& run,
                                                const Operation& op) {
  auto retire = [&](const Status& status) {
    proto::OpComplete completion;
    completion.op_id = op.op_id;
    finish_op(run, op, status, completion, /*attempted=*/false);
  };
  if (!run.abort_rest && fault::should_fire(fault::site::kDevmgrTaskAbort)) {
    run.abort_rest = true;
  }
  if (run.abort_rest) {
    // Mid-task shutdown: this op and everything after it in the task is
    // failed with a terminal status (earlier ops' effects stand) — no
    // event may be left dangling in FIRST/BUFFER.
    retire(Aborted("injected fault: mid-task shutdown"));
    return std::nullopt;
  }
  // Event wait list: delay the op's readiness to its dependencies'
  // completions. A dependency whose command was never flushed is a
  // client-side ordering error (OpenCL would deadlock; we fail fast).
  vt::Time op_ready = run.cursor;
  if (op.wait_op_ids.empty()) return op_ready;
  Status wait_status;
  {
    std::lock_guard lock(state_mutex_);
    auto session_it = sessions_.find(run.task->session_id);
    for (std::uint64_t wait_id : op.wait_op_ids) {
      if (session_it == sessions_.end()) break;
      auto done = session_it->second.completed_ops.find(wait_id);
      if (done == session_it->second.completed_ops.end()) {
        wait_status = FailedPrecondition(
            "wait-list op " + std::to_string(wait_id) +
            " has not completed (flush its queue first)");
        break;
      }
      op_ready = vt::max(op_ready, done->second);
    }
  }
  if (!wait_status.ok()) {
    retire(wait_status);
    return std::nullopt;
  }
  return op_ready;
}

void DeviceManager::finish_op(TaskRun& run, const Operation& op,
                              const Result<sim::Board::Interval>& outcome,
                              proto::OpComplete& completion, bool attempted) {
  const Task& task = *run.task;
  if (outcome.ok()) {
    const sim::Board::Interval& interval = outcome.value();
    run.cursor = interval.end;
    if (run.traced) run.executed.push_back({&op, interval});
    std::lock_guard lock(state_mutex_);
    if (interval.end > interval.start) {
      busy_records_.push_back(BusyRecord{run.client_id, interval});
    }
    auto session_it = sessions_.find(task.session_id);
    if (session_it != sessions_.end()) {
      session_it->second.completed_ops[op.op_id] = interval.end;
    }
  }
  completion.status = proto::StatusMsg::from(outcome.status());
  // Account before notifying: a client woken by the completion must
  // observe the op as executed.
  const bool last = &op == &task.ops.back();
  {
    std::lock_guard lock(state_mutex_);
    ++ops_executed_;
    if (last) ++tasks_executed_;
  }
  ops_counter_->increment();
  if (last) {
    tasks_counter_->increment();
    if (attempted) {
      // The exemplar lets an operator jump from a slow histogram bucket to
      // the exact trace that landed in it.
      task_span_ms_->observe((run.cursor - task.ready).ms(),
                             run.request_ctx.trace_id);
      busy_ms_gauge_->set(board_->busy_total().ms());
    }
    record_task_spans(run);  // for the successful prefix, if any
  }
  stage_completion(run.completions, task.session_id, op.op_id, completion,
                   run.cursor);
}

// Task-level spans: "task" = FIFO admission to last op completion, split
// into "queue-wait" (admission to first device activity — the paper's
// central-queue delay) and "execute", with one "op:<kind>" span per
// successful operation. By construction queue-wait + execute == task.
// Emitted *before* the final op's completion is notified: the client woken
// by that completion may immediately tear the scenario down (and uninstall
// the trace sink), so every span must reach the builder first.
void DeviceManager::record_task_spans(const TaskRun& run) {
  if (!run.traced || run.executed.empty()) return;
  const Task& task = *run.task;
  vt::Time exec_start = run.executed.front().interval.start;
  vt::Time task_end = exec_start;
  for (const TaskRun::ExecutedOp& rec : run.executed) {
    if (rec.interval.start < exec_start) exec_start = rec.interval.start;
    if (rec.interval.end > task_end) task_end = rec.interval.end;
  }
  // Salt from the queue's *deterministic* ordering key (ready stamp +
  // client), never task.seq: the admission counter is assigned under real
  // thread races, and golden traces must be byte-identical across runs.
  const trace::SpanContext task_ctx = run.request_ctx.child(
      trace::salt::kTask ^
      trace::mix64(static_cast<std::uint64_t>(task.ready.ns())) ^
      trace::fnv1a(task.client_id));
  const trace::SpanContext wait_ctx = task_ctx.child(trace::salt::kQueueWait);
  const trace::SpanContext exec_ctx = task_ctx.child(trace::salt::kExecute);
  trace::record(trace::Span{config_.id, "task", task.ready, task_end,
                            task_ctx.trace_id, task_ctx.span_id,
                            run.request_ctx.span_id});
  trace::record(trace::Span{config_.id, "queue-wait", task.ready, exec_start,
                            wait_ctx.trace_id, wait_ctx.span_id,
                            task_ctx.span_id});
  trace::record(trace::Span{config_.id, "execute", exec_start, task_end,
                            exec_ctx.trace_id, exec_ctx.span_id,
                            task_ctx.span_id});
  for (const TaskRun::ExecutedOp& rec : run.executed) {
    const Operation& op = *rec.op;
    if (op.kind == Operation::Kind::kFinish) continue;  // zero-width marker
    const char* kind = op.kind == Operation::Kind::kWrite  ? "op:write"
                       : op.kind == Operation::Kind::kRead ? "op:read"
                                                           : "op:kernel";
    const trace::SpanContext op_ctx =
        op.trace.child(trace::salt::kOp ^ op.op_id);
    trace::record(trace::Span{config_.id, kind, rec.interval.start,
                              rec.interval.end, op_ctx.trace_id,
                              op_ctx.span_id, exec_ctx.span_id});
  }
}

Result<sim::Board::Interval> DeviceManager::execute_operation(
    std::uint64_t session_id, const Operation& op, vt::Time ready,
    proto::OpComplete& completion) {
  // Snapshot the session resources we need under the lock.
  sim::MemHandle buffer;
  std::shared_ptr<shm::Segment> segment;
  {
    std::lock_guard lock(state_mutex_);
    auto session_it = sessions_.find(session_id);
    if (session_it == sessions_.end()) {
      return NotFound("session " + std::to_string(session_id) + " is gone");
    }
    segment = session_it->second.segment;
    if (op.kind == Operation::Kind::kWrite ||
        op.kind == Operation::Kind::kRead) {
      auto buffer_it = session_it->second.buffers.find(op.buffer_id);
      if (buffer_it == session_it->second.buffers.end()) {
        return NotFound("unknown buffer " + std::to_string(op.buffer_id));
      }
      buffer = buffer_it->second;
    }
  }

  switch (op.kind) {
    case Operation::Kind::kWrite: {
      if (!op.data_ready) {
        return FailedPrecondition("write op " + std::to_string(op.op_id) +
                                  " flushed before its data arrived");
      }
      if (op.use_shm) {
        if (segment == nullptr) {
          return FailedPrecondition("shm write without segment");
        }
        if (!segment->has_contents()) {
          // Timing-only board: the slot carries a length, not bytes.
          auto size = segment->release(op.shm_slot);
          if (!size.ok()) return size.status();
          return board_->transfer(buffer, op.offset, size.value(), ready);
        }
        auto view = segment->view(op.shm_slot);
        if (!view.ok()) return view.status();
        auto written = board_->write(buffer, op.offset, view.value(), ready);
        (void)segment->release(op.shm_slot);
        return written;
      }
      return board_->write(buffer, op.offset, ByteSpan{op.inline_data},
                           ready);
    }
    case Operation::Kind::kRead: {
      if (op.use_shm) {
        if (segment == nullptr) {
          return FailedPrecondition("shm read without segment");
        }
        auto slot = segment->allocate(op.size);
        if (!slot.ok()) return slot.status();
        auto interval = [&]() -> Result<sim::Board::Interval> {
          if (!segment->has_contents()) {
            return board_->transfer(buffer, op.offset, op.size, ready);
          }
          auto view = segment->writable_view(slot.value());
          if (!view.ok()) return view.status();
          return board_->read(buffer, op.offset, view.value(), ready);
        }();
        if (!interval.ok()) {
          (void)segment->release(slot.value());
          return interval.status();
        }
        completion.shm_slot = slot.value();
        completion.size = op.size;
        return interval;
      }
      // Pooled read staging; no zero-fill needed because Board::read fully
      // defines the span on success (never-written device memory reads as
      // zeros) and failures never ship `out`.
      Bytes out = arena::acquire(op.size);
      out.resize_for_overwrite(op.size);
      auto interval = board_->read(
          buffer, op.offset, MutableByteSpan{out}, ready);
      if (!interval.ok()) return interval;
      completion.data = std::move(out);
      completion.size = op.size;
      return interval;
    }
    case Operation::Kind::kKernel: {
      auto launch = resolve_kernel(session_id, op);
      if (!launch.ok()) return launch.status();
      return board_->run_kernel(launch.value(), ready);
    }
    case Operation::Kind::kFinish:
      return sim::Board::Interval{ready, ready};
  }
  return Internal("unhandled operation kind");
}

Result<sim::KernelLaunch> DeviceManager::resolve_kernel(
    std::uint64_t session_id, const Operation& op) {
  std::lock_guard lock(state_mutex_);
  auto session_it = sessions_.find(session_id);
  if (session_it == sessions_.end()) {
    return NotFound("session " + std::to_string(session_id) + " is gone");
  }
  Session& session = session_it->second;
  auto kernel_it = session.kernels.find(op.kernel_id);
  if (kernel_it == session.kernels.end()) {
    return NotFound("unknown kernel " + std::to_string(op.kernel_id));
  }
  sim::KernelLaunch launch;
  launch.kernel = kernel_it->second;
  launch.global_size = op.global_size;
  launch.args.reserve(op.args.size());
  for (std::size_t i = 0; i < op.args.size(); ++i) {
    const proto::KernelArgMsg& arg = op.args[i];
    switch (arg.kind) {
      case proto::KernelArgMsg::Kind::kBuffer: {
        auto buffer_it = session.buffers.find(arg.buffer_id);
        if (buffer_it == session.buffers.end()) {
          return NotFound("kernel arg " + std::to_string(i) +
                          " references unknown buffer " +
                          std::to_string(arg.buffer_id));
        }
        launch.args.emplace_back(buffer_it->second);
        break;
      }
      case proto::KernelArgMsg::Kind::kInt:
        launch.args.emplace_back(arg.int_value);
        break;
      case proto::KernelArgMsg::Kind::kDouble:
        launch.args.emplace_back(arg.double_value);
        break;
      case proto::KernelArgMsg::Kind::kUnset:
        return InvalidArgument("kernel arg " + std::to_string(i) +
                               " is unset");
    }
  }
  if (op.trace.is_valid()) {
    // Same derivation as the "op:kernel" span in record_task_spans, so the
    // board's kernel span nests under it.
    launch.trace = op.trace.child(trace::salt::kOp ^ op.op_id);
  }
  return launch;
}

void DeviceManager::stage_completion(CompletionBatch& batch,
                                     std::uint64_t session_id,
                                     std::uint64_t op_id,
                                     proto::OpComplete& completion,
                                     vt::Time at) {
  if (!batch.resolved) {
    std::lock_guard lock(state_mutex_);
    auto it = sessions_.find(session_id);
    if (it == sessions_.end()) return;  // session already torn down
    batch.connection = it->second.connection;
    batch.resolved = true;
  }
  if (batch.connection == nullptr) return;
  net::Completion staged;
  staged.correlation = op_id;
  staged.payload = proto::encode(completion);
  staged.server_time = at;
  // proto::encode() copied the read payload into the frame; its buffer goes
  // back to the pool instead of the heap.
  if (completion.data.is_heap()) {
    arena::recycle(std::move(completion.data));
  }
  batch.staged.push_back(std::move(staged));
}

void DeviceManager::flush_completions(CompletionBatch& batch) {
  if (batch.staged.empty()) return;
  if (batch.connection == nullptr || batch.connection->closed()) {
    // The stream closed while the task executed. The client's events are
    // resolved by connection-loss poisoning instead.
    for (const net::Completion& staged : batch.staged) {
      BF_LOG_WARN("devmgr") << config_.id << ": OpComplete for op "
                            << staged.correlation
                            << " undeliverable: stream closed";
    }
    batch.staged.clear();
    return;
  }
  const std::size_t count = batch.staged.size();
  if (Status sent = batch.connection->notify_batch(batch.staged);
      !sent.ok()) {
    // Close raced the delivery (or fault injection dropped the batch push).
    BF_LOG_WARN("devmgr") << config_.id << ": " << count
                          << " OpComplete notification(s) undeliverable: "
                          << sent.to_string();
  }
}

void DeviceManager::cleanup_session(std::uint64_t session_id) {
  // The client is gone: recall its still-queued tasks so the worker never
  // spends board time on work nobody can observe. Program waiters are
  // completed with kCancelled (the dispatcher blocked on them belongs to
  // this very connection, but a shutdown drain may also reach here).
  std::vector<Task> cancelled = scheduler_.cancel_session(session_id);
  for (Task& task : cancelled) {
    if (task.program_waiter != nullptr) {
      task.program_waiter->complete(
          Cancelled("client disconnected before reconfiguration ran"),
          task.ready);
    }
    retire_task_storage(task);
  }
  if (!cancelled.empty()) {
    BF_LOG_INFO("devmgr") << config_.id << ": cancelled " << cancelled.size()
                          << " queued task(s) of dead session " << session_id;
    tasks_cancelled_counter_->increment(
        static_cast<double>(cancelled.size()));
    std::lock_guard lock(state_mutex_);
    tasks_cancelled_ += cancelled.size();
  }
  std::shared_ptr<shm::Segment> segment;
  {
    std::lock_guard lock(state_mutex_);
    auto it = sessions_.find(session_id);
    if (it == sessions_.end()) return;
    for (const auto& [id, handle] : it->second.buffers) {
      (void)board_->release(handle);
    }
    segment = it->second.segment;
    sessions_.erase(it);
    sessions_gauge_->set(static_cast<double>(sessions_.size()));
  }
  if (segment != nullptr && node_shm_ != nullptr) {
    (void)node_shm_->unlink(segment_name(session_id));
  }
}

}  // namespace bf::devmgr
