#include "remote/remote_runtime.h"

#include <algorithm>
#include <optional>

#include "common/arena.h"
#include "common/log.h"
#include "fault/injector.h"
#include "proto/messages.h"
#include "remote/event_state.h"
#include "trace/span.h"

namespace bf::remote {
namespace {

ocl::DeviceInfo to_device_info(const proto::DeviceDescriptor& descriptor) {
  ocl::DeviceInfo info;
  info.id = descriptor.id;
  info.name = descriptor.name;
  info.vendor = descriptor.vendor;
  info.platform = descriptor.platform;
  info.node = descriptor.node;
  info.accelerator = descriptor.accelerator;
  info.global_memory_bytes = descriptor.global_memory_bytes;
  return info;
}

}  // namespace

// --- RemoteEvent ----------------------------------------------------------------

class RemoteQueue;

// The paper's 4-state event machine (transition relation in
// remote/event_state.h — states only move forward, stale acks are ignored).
// Holds the connection by shared_ptr: an application may legally keep an
// event alive past its context's destruction, and wait() touches the
// connection after waking.
class RemoteEvent final : public ocl::Event {
 public:
  RemoteEvent(std::uint64_t op_id, ocl::Session* session,
              std::shared_ptr<net::Connection> connection, RemoteQueue* queue,
              CallOptions options = {})
      : op_id_(op_id),
        session_(session),
        connection_(std::move(connection)),
        queue_(queue),
        options_(options) {}

  [[nodiscard]] std::uint64_t op_id() const { return op_id_; }

  [[nodiscard]] ocl::EventStatus status() const override {
    std::lock_guard lock(mutex_);
    if (!op_status_.ok()) return ocl::EventStatus::kError;
    switch (fsm_.state()) {
      case EventState::kInit: return ocl::EventStatus::kQueued;
      case EventState::kFirst: return ocl::EventStatus::kSubmitted;
      case EventState::kBuffer: return ocl::EventStatus::kRunning;
      case EventState::kComplete:
        // Completion becomes observable once the application's virtual
        // clock passes the completion stamp (polling costs the app time).
        return completion_ <= session_->now() ? ocl::EventStatus::kComplete
                                              : ocl::EventStatus::kRunning;
      case EventState::kFailed:
      case EventState::kTimedOut:
        return ocl::EventStatus::kError;
    }
    return ocl::EventStatus::kError;
  }

  Status wait() override;

  [[nodiscard]] vt::Time completion_time() const override {
    std::lock_guard lock(mutex_);
    return completion_;
  }

  // --- driven by the connection thread --------------------------------------

  void on_enqueued() {
    std::lock_guard lock(mutex_);
    (void)fsm_.apply(EventInput::kEnqueuedAck);  // stale/dup acks ignored
  }

  void mark_buffer_staged() {
    std::lock_guard lock(mutex_);
    (void)fsm_.apply(EventInput::kBufferStaged);
  }

  void complete(Status status, vt::Time at) {
    {
      std::lock_guard lock(mutex_);
      // First terminal input wins; a stale OpComplete (duplicate delivery,
      // teardown racing a real completion, a late ack after a client-side
      // timeout) must not clobber the recorded status or completion stamp.
      // Error completions land in FAILED so dependents can fast-fail.
      const EventInput input =
          status.ok() ? EventInput::kCompleted : EventInput::kFailed;
      if (!fsm_.apply(input)) return;
      op_status_ = std::move(status);
      completion_ = at;
    }
    cv_.notify_all();
  }

  // Non-OK iff the event reached a terminal failure state (FAILED or
  // TIMED_OUT): dependents waiting on it must fail fast instead of being
  // enqueued behind an outcome that will never arrive.
  [[nodiscard]] Status poison_status() const {
    std::lock_guard lock(mutex_);
    if (fsm_.state() == EventState::kFailed ||
        fsm_.state() == EventState::kTimedOut) {
      return op_status_;
    }
    return Status::Ok();
  }

  // Read destination plumbing (set at enqueue time).
  void set_read_target(MutableByteSpan target,
                       std::shared_ptr<shm::Segment> segment) {
    target_ = target;
    segment_ = std::move(segment);
  }
  [[nodiscard]] MutableByteSpan read_target() const { return target_; }
  [[nodiscard]] const std::shared_ptr<shm::Segment>& segment() const {
    return segment_;
  }

 private:
  std::uint64_t op_id_;
  ocl::Session* session_;
  std::shared_ptr<net::Connection> connection_;
  RemoteQueue* queue_;

  CallOptions options_;

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  EventFsm fsm_;
  Status op_status_;
  vt::Time completion_;

  MutableByteSpan target_;
  std::shared_ptr<shm::Segment> segment_;
};

// --- RemoteContext ----------------------------------------------------------------

class RemoteContext final : public ocl::Context {
 public:
  RemoteContext(std::shared_ptr<net::Connection> connection,
                ocl::Session* session, std::uint64_t session_id,
                ocl::DeviceInfo device,
                std::shared_ptr<shm::Segment> segment,
                CallOptions call_options = {})
      : connection_(std::move(connection)),
        session_(session),
        session_id_(session_id),
        device_(std::move(device)),
        segment_(std::move(segment)),
        call_options_(call_options) {
    pump_ = std::thread([this] { pump_loop(); });
  }

  ~RemoteContext() override {
    connection_->close();
    if (pump_.joinable()) pump_.join();
    fail_pending(Unavailable("context destroyed"));
  }

  RemoteContext(const RemoteContext&) = delete;
  RemoteContext& operator=(const RemoteContext&) = delete;

  [[nodiscard]] const ocl::DeviceInfo& device() const override {
    return device_;
  }
  [[nodiscard]] ocl::Session& session() override { return *session_; }

  Status program(const std::string& bitstream_id) override {
    proto::ProgramReq request;
    request.bitstream_id = bitstream_id;
    auto reply = unary(proto::Method::kProgram, proto::encode(request));
    if (!reply.ok()) return reply.status();
    auto resp =
        proto::decode<proto::ProgramResp>(ByteSpan{reply.value().payload});
    if (!resp.ok()) return resp.status();
    if (resp.value().reconfigured) device_.accelerator = "";  // refreshed lazily
    return resp.value().status.to_status();
  }

  Result<ocl::Buffer> create_buffer(std::uint64_t size) override {
    proto::CreateBufferReq request;
    request.size = size;
    auto reply = unary(proto::Method::kCreateBuffer, proto::encode(request));
    if (!reply.ok()) return reply.status();
    auto resp =
        proto::decode<proto::CreateBufferResp>(ByteSpan{reply.value().payload});
    if (!resp.ok()) return resp.status();
    if (Status s = resp.value().status.to_status(); !s.ok()) return s;
    return ocl::Buffer{resp.value().buffer_id, size};
  }

  Status release_buffer(const ocl::Buffer& buffer) override {
    proto::ReleaseBufferReq request;
    request.buffer_id = buffer.id;
    auto reply = unary(proto::Method::kReleaseBuffer, proto::encode(request));
    if (!reply.ok()) return reply.status();
    auto resp = proto::decode<proto::AckResp>(ByteSpan{reply.value().payload});
    if (!resp.ok()) return resp.status();
    return resp.value().status.to_status();
  }

  Result<ocl::Kernel> create_kernel(const std::string& name) override {
    proto::CreateKernelReq request;
    request.name = name;
    auto reply = unary(proto::Method::kCreateKernel, proto::encode(request));
    if (!reply.ok()) return reply.status();
    auto resp =
        proto::decode<proto::CreateKernelResp>(ByteSpan{reply.value().payload});
    if (!resp.ok()) return resp.status();
    if (Status s = resp.value().status.to_status(); !s.ok()) return s;
    return ocl::Kernel(resp.value().kernel_id, name, resp.value().arity);
  }

  Result<std::unique_ptr<ocl::CommandQueue>> create_queue() override;

  void announce_idle(vt::Time bound) override {
    connection_->announce(bound);
  }

  // --- used by RemoteQueue ----------------------------------------------------

  [[nodiscard]] net::Connection& connection() { return *connection_; }
  [[nodiscard]] const std::shared_ptr<net::Connection>& connection_ptr()
      const {
    return connection_;
  }
  [[nodiscard]] const std::shared_ptr<shm::Segment>& segment() const {
    return segment_;
  }
  [[nodiscard]] bool shm_enabled() const { return segment_ != nullptr; }
  [[nodiscard]] const CallOptions& call_options() const {
    return call_options_;
  }

  std::uint64_t next_op_id() { return op_counter_.fetch_add(1) + 1; }

  void register_event(std::uint64_t op_id, std::shared_ptr<RemoteEvent> ev) {
    std::lock_guard lock(events_mutex_);
    events_[op_id] = std::move(ev);
  }

 private:
  // Unary call with this channel's CallOptions; the retry policy is only
  // honoured for idempotent methods (a retried CreateBuffer whose first
  // reply was lost would leak the first buffer).
  Result<net::Frame> unary(proto::Method method, Bytes payload) {
    CallOptions options = call_options_;
    if (!proto::is_idempotent(method)) options.retry.max_attempts = 1;
    const trace::SpanContext parent = session_->trace_context();
    if (!parent.is_valid() || !trace::enabled()) {
      return connection_->call(method, std::move(payload), session_->clock(),
                               options);
    }
    // Client-side rpc span (salted with the start stamp so repeated calls
    // of one method inside a request stay distinct); the frame carries the
    // context so the Device Manager parents its handling span under ours.
    const vt::Time started = session_->now();
    const trace::SpanContext ctx = parent.child(
        trace::salt::kRpc ^ trace::fnv1a(proto::to_string(method)) ^
        static_cast<std::uint64_t>(started.ns()));
    auto reply = connection_->call(method, std::move(payload),
                                   session_->clock(), options, ctx);
    trace::record(trace::Span{
        session_->client_id(),
        std::string("rpc:") + std::string(proto::to_string(method)), started,
        session_->now(), ctx.trace_id, ctx.span_id, parent.span_id});
    return reply;
  }

  void pump_loop();
  void process_notification(const net::Frame& frame);
  void fail_pending(const Status& status);
  std::shared_ptr<RemoteEvent> take_event(std::uint64_t op_id);
  std::shared_ptr<RemoteEvent> peek_event(std::uint64_t op_id);

  std::shared_ptr<net::Connection> connection_;
  ocl::Session* session_;
  std::uint64_t session_id_;
  ocl::DeviceInfo device_;
  std::shared_ptr<shm::Segment> segment_;
  CallOptions call_options_;

  std::atomic<std::uint64_t> op_counter_{0};
  std::mutex events_mutex_;
  std::map<std::uint64_t, std::shared_ptr<RemoteEvent>> events_;

  std::thread pump_;
};

// --- RemoteQueue -----------------------------------------------------------------

// Converts an event wait list into the server-side op-id dependency list.
// Only events produced by this runtime carry op ids. A dependency that
// already reached a terminal failure state (FAILED / TIMED_OUT) poisons the
// new op: fail fast client-side with FAILED_PRECONDITION rather than ship a
// call whose prerequisite outcome will never arrive. (The Device Manager
// applies the same rule server-side against its completed-op set.)
Result<std::vector<std::uint64_t>> to_wait_ids(ocl::EventWaitList wait_list) {
  std::vector<std::uint64_t> out;
  out.reserve(wait_list.size());
  for (const ocl::EventPtr& event : wait_list) {
    if (event == nullptr) continue;
    auto* remote_event = dynamic_cast<RemoteEvent*>(event.get());
    if (remote_event == nullptr) {
      return InvalidArgument(
          "wait-list event was not created by this remote runtime");
    }
    if (Status poison = remote_event->poison_status(); !poison.ok()) {
      return FailedPrecondition(
          "wait-list op " + std::to_string(remote_event->op_id()) +
          " reached a terminal failure state: " + poison.to_string());
    }
    out.push_back(remote_event->op_id());
  }
  return out;
}

class RemoteQueue final : public ocl::CommandQueue {
 public:
  RemoteQueue(RemoteContext* context, std::uint64_t queue_id)
      : context_(context), queue_id_(queue_id) {}

  Result<ocl::EventPtr> enqueue_write(const ocl::Buffer& buffer,
                                      std::uint64_t offset, ByteSpan data,
                                      bool blocking,
                                      ocl::EventWaitList wait_list) override {
    return enqueue_write_impl(buffer, offset, data, /*owned=*/nullptr,
                              blocking, wait_list);
  }

  // Ownership transfer: the shm path moves the caller's buffer straight
  // into the slot; the gRPC path moves it into the WriteData message. Either
  // way the modeled copy/transfer charges are unchanged.
  Result<ocl::EventPtr> enqueue_write(const ocl::Buffer& buffer,
                                      std::uint64_t offset, Bytes&& data,
                                      bool blocking,
                                      ocl::EventWaitList wait_list) override {
    return enqueue_write_impl(buffer, offset, ByteSpan{data}, &data, blocking,
                              wait_list);
  }

  Result<ocl::EventPtr> enqueue_write_impl(const ocl::Buffer& buffer,
                                           std::uint64_t offset, ByteSpan data,
                                           Bytes* owned, bool blocking,
                                           ocl::EventWaitList wait_list) {
    auto& session = context_->session();
    const std::uint64_t op_id = context_->next_op_id();
    auto event = std::make_shared<RemoteEvent>(op_id, &session,
                                               context_->connection_ptr(), this,
                                               context_->call_options());
    context_->register_event(op_id, event);

    auto wait_ids = to_wait_ids(wait_list);
    if (!wait_ids.ok()) return wait_ids.status();
    // INIT: call metadata (buffer id, size, offset).
    proto::EnqueueWriteReq request;
    request.op_id = op_id;
    request.queue_id = queue_id_;
    request.buffer_id = buffer.id;
    request.offset = offset;
    request.size = data.size();
    request.wait_op_ids = std::move(wait_ids.value());
    request.trace_id = session.trace_context().trace_id;
    request.parent_span = session.trace_context().span_id;
    Status sent = context_->connection().send(
        proto::Method::kEnqueueWrite, op_id, proto::encode(request),
        session.clock());
    if (!sent.ok()) return sent;

    // BUFFER: stage the payload. Shared memory when granted (one modeled
    // copy, charged to our clock); otherwise inline protobuf bytes. The
    // payload is either moved (owned) or serialized directly from the
    // caller's span — never duplicated into the message first.
    proto::WriteData payload;
    payload.op_id = op_id;
    payload.size = data.size();
    if (context_->shm_enabled()) {
      auto slot = owned != nullptr
                      ? context_->segment()->stage(std::move(*owned),
                                                   session.clock())
                      : context_->segment()->stage(data, session.clock());
      if (!slot.ok()) return slot.status();
      payload.shm_slot = slot.value();
    } else if (owned != nullptr) {
      payload.data = std::move(*owned);
    } else {
      payload.data_view = data;
    }
    sent = context_->connection().send(proto::Method::kWriteData, op_id,
                                       proto::encode(payload), session.clock());
    // The owned buffer was serialized into the frame (gRPC path) or moved
    // into the shm slot; whatever heap block is still here goes back to
    // the pool for the next request's payload.
    arena::recycle(std::move(payload.data));
    if (!sent.ok()) return sent;
    event->mark_buffer_staged();
    dirty_ = true;

    if (blocking) {
      if (Status s = flush(); !s.ok()) return s;
      if (Status s = event->wait(); !s.ok()) return s;
    }
    return ocl::EventPtr(event);
  }

  Result<ocl::EventPtr> enqueue_read(const ocl::Buffer& buffer,
                                     std::uint64_t offset, MutableByteSpan out,
                                     bool blocking,
                                     ocl::EventWaitList wait_list) override {
    auto& session = context_->session();
    const std::uint64_t op_id = context_->next_op_id();
    auto event = std::make_shared<RemoteEvent>(op_id, &session,
                                               context_->connection_ptr(), this,
                                               context_->call_options());
    event->set_read_target(out, context_->segment());
    context_->register_event(op_id, event);

    auto wait_ids = to_wait_ids(wait_list);
    if (!wait_ids.ok()) return wait_ids.status();
    proto::EnqueueReadReq request;
    request.op_id = op_id;
    request.queue_id = queue_id_;
    request.buffer_id = buffer.id;
    request.offset = offset;
    request.size = out.size();
    request.use_shared_memory = context_->shm_enabled();
    request.wait_op_ids = std::move(wait_ids.value());
    request.trace_id = session.trace_context().trace_id;
    request.parent_span = session.trace_context().span_id;
    Status sent = context_->connection().send(
        proto::Method::kEnqueueRead, op_id, proto::encode(request),
        session.clock());
    if (!sent.ok()) return sent;
    dirty_ = true;

    if (blocking) {
      if (Status s = flush(); !s.ok()) return s;
      if (Status s = event->wait(); !s.ok()) return s;
    }
    return ocl::EventPtr(event);
  }

  Result<ocl::EventPtr> enqueue_kernel(const ocl::Kernel& kernel,
                                       ocl::NdRange range,
                                       ocl::EventWaitList wait_list) override {
    auto& session = context_->session();
    const std::uint64_t op_id = context_->next_op_id();
    auto event = std::make_shared<RemoteEvent>(op_id, &session,
                                               context_->connection_ptr(), this,
                                               context_->call_options());
    context_->register_event(op_id, event);

    auto wait_ids = to_wait_ids(wait_list);
    if (!wait_ids.ok()) return wait_ids.status();
    proto::EnqueueKernelReq request;
    request.op_id = op_id;
    request.queue_id = queue_id_;
    request.kernel_id = kernel.id();
    request.global_size = {range.x, range.y, range.z};
    request.wait_op_ids = std::move(wait_ids.value());
    request.trace_id = session.trace_context().trace_id;
    request.parent_span = session.trace_context().span_id;
    request.args.reserve(kernel.args().size());
    for (const ocl::KernelArgValue& arg : kernel.args()) {
      proto::KernelArgMsg msg;
      if (const auto* ref = std::get_if<ocl::BufferRef>(&arg)) {
        msg.kind = proto::KernelArgMsg::Kind::kBuffer;
        msg.buffer_id = ref->id;
      } else if (const auto* iv = std::get_if<std::int64_t>(&arg)) {
        msg.kind = proto::KernelArgMsg::Kind::kInt;
        msg.int_value = *iv;
      } else if (const auto* dv = std::get_if<double>(&arg)) {
        msg.kind = proto::KernelArgMsg::Kind::kDouble;
        msg.double_value = *dv;
      } else {
        return InvalidArgument("kernel '" + kernel.name() + "' has unset arg");
      }
      request.args.push_back(msg);
    }
    Status sent = context_->connection().send(
        proto::Method::kEnqueueKernel, op_id, proto::encode(request),
        session.clock());
    if (!sent.ok()) return sent;
    dirty_ = true;
    return ocl::EventPtr(event);
  }

  Status flush() override {
    if (!dirty_) return Status::Ok();
    auto& session = context_->session();
    proto::FlushReq request;
    request.queue_id = queue_id_;
    Status sent =
        context_->connection().send(proto::Method::kFlush, /*correlation=*/0,
                                    proto::encode(request), session.clock());
    if (sent.ok()) dirty_ = false;
    return sent;
  }

  Status finish() override {
    auto& session = context_->session();
    const std::uint64_t op_id = context_->next_op_id();
    auto event = std::make_shared<RemoteEvent>(op_id, &session,
                                               context_->connection_ptr(), this,
                                               context_->call_options());
    context_->register_event(op_id, event);
    proto::FinishReq request;
    request.op_id = op_id;
    request.queue_id = queue_id_;
    Status sent = context_->connection().send(
        proto::Method::kFinish, op_id, proto::encode(request), session.clock());
    if (!sent.ok()) return sent;
    dirty_ = false;  // Finish seals the task server-side
    return event->wait();
  }

  // clWaitForEvents implies a flush of the queue that generated the event.
  Status flush_for_wait() { return flush(); }

 private:
  RemoteContext* context_;
  std::uint64_t queue_id_;
  bool dirty_ = false;  // ops enqueued since last flush
};

Status RemoteEvent::wait() {
  bool pending = false;
  {
    std::lock_guard lock(mutex_);
    pending = !fsm_.terminal();
  }
  // Only a still-pending wait needs the implied flush. A terminal event
  // already has its status, and skipping the queue here keeps wait() safe
  // on events the application kept alive past their context (the queue's
  // context pointer dies with the context; teardown completes every
  // registered event via fail_pending first).
  if (pending && queue_ != nullptr) {
    if (Status s = queue_->flush_for_wait(); !s.ok()) return s;
  }
  {
    std::unique_lock lock(mutex_);
    if (!fsm_.terminal()) {
      // Register the wake tag so the connection thread re-anchors our gate
      // bound atomically with the completion that wakes us.
      connection_->prepare_wait(net::Connection::WaitTag::kEvent, op_id_);
      auto done = [&] { return fsm_.terminal(); };
      const vt::Time deadline = options_.deadline_from(session_->now());
      if (deadline.is_infinite()) {
        cv_.wait(lock, done);
      } else if (!cv_.wait_for(lock, options_.wedge_grace, done)) {
        // No completion materialized in wedge_grace of wall time (lost
        // OpComplete, dead worker): the modeled wait ran out at the
        // deadline. TIMED_OUT is terminal — a completion that straggles in
        // later is stale by the FSM's first-terminal-wins rule, and any
        // dependent op fails fast via poison_status().
        (void)fsm_.apply(EventInput::kTimedOut);
        op_status_ = DeadlineExceeded("wait on op " + std::to_string(op_id_) +
                                      " abandoned at deadline");
        completion_ = deadline;
      }
    }
  }
  vt::Time completion;
  Status status;
  {
    std::lock_guard lock(mutex_);
    completion = completion_;
    status = op_status_;
  }
  session_->clock().advance_to(completion);
  connection_->announce(session_->now());
  return status;
}

Result<std::unique_ptr<ocl::CommandQueue>> RemoteContext::create_queue() {
  auto reply = unary(proto::Method::kCreateQueue, Bytes{});
  if (!reply.ok()) return reply.status();
  auto resp =
      proto::decode<proto::CreateQueueResp>(ByteSpan{reply.value().payload});
  if (!resp.ok()) return resp.status();
  if (Status s = resp.value().status.to_status(); !s.ok()) return s;
  return std::unique_ptr<ocl::CommandQueue>(
      std::make_unique<RemoteQueue>(this, resp.value().queue_id));
}

void RemoteContext::pump_loop() {
  while (auto frame = connection_->notifications().pop()) {
    // Completion-queue reordering: swap this frame with the next one when
    // another notification is already queued behind it. Event completion
    // stamps ride in the frames themselves, so the modeled results are
    // unchanged — only the pump's processing order is shaken.
    if (fault::should_fire(fault::site::kRemotePumpReorder)) {
      // Closed-aware try_pop: on a closed-and-drained queue this stops
      // immediately instead of treating "no item" as "try again later".
      if (auto next = connection_->notifications().try_pop();
          next.has_item()) {
        process_notification(*next.item);
        arena::recycle(std::move(next.item->payload));
      }
    }
    process_notification(*frame);
    // The pump retires every notification frame: recycle its payload so the
    // server's next completion of this size class skips the heap.
    arena::recycle(std::move(frame->payload));
  }
  fail_pending(Unavailable("connection to device manager lost"));
}

void RemoteContext::process_notification(const net::Frame& frame) {
  switch (frame.method) {
    case proto::Method::kOpEnqueued: {
      auto note = proto::decode<proto::OpEnqueued>(ByteSpan{frame.payload});
      if (!note.ok()) break;
      auto event = peek_event(note.value().op_id);
      if (event != nullptr) {
        event->on_enqueued();
        if (fault::should_fire(fault::site::kRemotePumpDupEnqueued)) {
          // Duplicate admission ack: the FSM must ignore FIRST -> FIRST.
          event->on_enqueued();
        }
      }
      break;
    }
    case proto::Method::kOpComplete: {
      // decode_view: the payload field stays a view into frame.payload
      // (alive for this whole call), so inline read data is copied exactly
      // once — wire buffer straight into the application buffer.
      auto note = proto::decode_view(ByteSpan{frame.payload});
      if (!note.ok()) break;
      auto event = take_event(note.value().op_id);
      if (event == nullptr) break;  // stale/duplicate ack: already retired
      Status status = note.value().status.to_status();
      vt::Time completion = frame.arrival_time;
      if (status.ok() && !event->read_target().empty()) {
        // Deliver read data into the application buffer.
        if (note.value().shm_slot >= 0 && event->segment() != nullptr) {
          vt::Cursor copy_clock(frame.arrival_time);
          status = event->segment()->fetch(note.value().shm_slot,
                                           event->read_target(), copy_clock);
          completion = copy_clock.now();
        } else if (note.value().data_view.size() ==
                   event->read_target().size()) {
          std::copy(note.value().data_view.begin(),
                    note.value().data_view.end(),
                    event->read_target().begin());
        } else {
          status = Internal("read completion size mismatch: got " +
                            std::to_string(note.value().data_view.size()) +
                            "B, want " +
                            std::to_string(event->read_target().size()) +
                            "B");
        }
      }
      event->complete(std::move(status), completion);
      if (fault::should_fire(fault::site::kRemotePumpDupComplete)) {
        // Stale OpComplete for an op that already completed: the first
        // completion's status and stamp must stand.
        event->complete(Internal("injected fault: stale OpComplete"),
                        frame.arrival_time);
      }
      break;
    }
    default:
      BF_LOG_WARN("remote") << "unexpected notification "
                            << proto::to_string(frame.method);
      break;
  }
}

void RemoteContext::fail_pending(const Status& status) {
  std::map<std::uint64_t, std::shared_ptr<RemoteEvent>> pending;
  {
    std::lock_guard lock(events_mutex_);
    pending.swap(events_);
  }
  for (auto& [op_id, event] : pending) {
    event->complete(status, session_->now());
  }
}

std::shared_ptr<RemoteEvent> RemoteContext::take_event(std::uint64_t op_id) {
  std::lock_guard lock(events_mutex_);
  auto it = events_.find(op_id);
  if (it == events_.end()) return nullptr;
  auto event = it->second;
  events_.erase(it);
  return event;
}

std::shared_ptr<RemoteEvent> RemoteContext::peek_event(std::uint64_t op_id) {
  std::lock_guard lock(events_mutex_);
  auto it = events_.find(op_id);
  return it == events_.end() ? nullptr : it->second;
}

// --- RemoteRuntime ----------------------------------------------------------------

namespace {

struct OpenedSession {
  std::shared_ptr<net::Connection> connection;
  proto::OpenSessionResp resp;
};

// Connect + OpenSession with reconnect-level retry driven by the manager's
// CallOptions: a retryable failure (UNAVAILABLE connect/call, a call that
// ran out its deadline) tears the connection down, charges backoff to the
// session clock and dials again. Non-retryable outcomes return immediately.
// The per-call retry policy is stripped — attempt accounting lives here,
// where a fresh connection can actually fix a broken channel.
Result<OpenedSession> open_session_with_retry(const ManagerAddress& manager,
                                              ocl::Session& session,
                                              bool use_shared_memory,
                                              bool keep_connection) {
  CallOptions per_call = manager.call_options;
  per_call.retry.max_attempts = 1;
  const unsigned attempts =
      std::max(1u, manager.call_options.retry.max_attempts);
  Backoff backoff(manager.call_options.retry);
  Status last = Unavailable("session open not attempted");
  for (unsigned attempt = 1; attempt <= attempts; ++attempt) {
    if (attempt > 1) {
      session.clock().advance(backoff.next());
      BF_LOG_WARN("remote") << "reconnecting to "
                            << manager.endpoint->address() << " after "
                            << last.to_string() << " (attempt " << attempt
                            << "/" << attempts << ")";
    }
    auto connection = manager.endpoint->connect(
        session.client_id(), manager.transport, session.clock());
    if (!connection.ok()) {
      last = connection.status();
      if (!is_retryable(last.code())) return last;
      continue;
    }
    proto::OpenSessionReq request;
    request.client_id = session.client_id();
    request.use_shared_memory = use_shared_memory;
    auto reply = connection.value()->call(
        proto::Method::kOpenSession, proto::encode(request), session.clock(),
        per_call);
    if (!reply.ok()) {
      connection.value()->close();
      last = reply.status();
      if (!is_retryable(last.code())) return last;
      continue;
    }
    auto resp =
        proto::decode<proto::OpenSessionResp>(ByteSpan{reply.value().payload});
    if (!resp.ok()) {
      connection.value()->close();
      return resp.status();
    }
    if (Status s = resp.value().status.to_status(); !s.ok()) {
      connection.value()->close();
      return s;
    }
    if (!keep_connection) connection.value()->close();
    return OpenedSession{connection.value(), std::move(resp.value())};
  }
  return last;
}

}  // namespace

RemoteRuntime::RemoteRuntime(std::vector<ManagerAddress> managers)
    : managers_(std::move(managers)) {
  for (const ManagerAddress& manager : managers_) {
    BF_CHECK(manager.endpoint != nullptr);
  }
}

Result<std::vector<ocl::PlatformInfo>> RemoteRuntime::platforms() {
  std::vector<ocl::PlatformInfo> out;
  out.reserve(managers_.size());
  for (std::size_t i = 0; i < managers_.size(); ++i) {
    ocl::PlatformInfo platform;
    platform.name = "BlastFunction Remote OpenCL";
    platform.vendor = "BlastFunction";
    // Resolve the managed device's real id (short probe session, cached).
    ocl::Session probe_session("bf-probe");
    auto info = probe(managers_[i], probe_session);
    if (info.ok()) {
      platform.device_ids = {info.value().id};
      std::lock_guard lock(cache_mutex_);
      device_to_manager_[info.value().id] = i;
    }
    out.push_back(std::move(platform));
  }
  return out;
}

Result<std::vector<ocl::DeviceInfo>> RemoteRuntime::devices() {
  std::vector<ocl::DeviceInfo> out;
  for (std::size_t i = 0; i < managers_.size(); ++i) {
    ocl::Session probe_session("bf-probe");
    auto info = probe(managers_[i], probe_session);
    if (!info.ok()) return info.status();
    {
      std::lock_guard lock(cache_mutex_);
      device_to_manager_[info.value().id] = i;
    }
    out.push_back(std::move(info.value()));
  }
  return out;
}

Result<ocl::DeviceInfo> RemoteRuntime::probe(const ManagerAddress& manager,
                                             ocl::Session& session) {
  auto opened = open_session_with_retry(manager, session,
                                        /*use_shared_memory=*/false,
                                        /*keep_connection=*/false);
  if (!opened.ok()) return opened.status();
  return to_device_info(opened.value().resp.device);
}

Result<std::unique_ptr<ocl::Context>> RemoteRuntime::create_context(
    const std::string& device_id, ocl::Session& session) {
  // The router: find the manager owning this device (cached from devices(),
  // probing on miss).
  std::optional<std::size_t> index;
  {
    std::lock_guard lock(cache_mutex_);
    auto it = device_to_manager_.find(device_id);
    if (it != device_to_manager_.end()) index = it->second;
  }
  if (!index.has_value()) {
    for (std::size_t i = 0; i < managers_.size() && !index.has_value(); ++i) {
      ocl::Session probe_session("bf-probe");
      auto info = probe(managers_[i], probe_session);
      if (info.ok() && info.value().id == device_id) {
        std::lock_guard lock(cache_mutex_);
        device_to_manager_[device_id] = i;
        index = i;
      }
    }
  }
  if (!index.has_value()) {
    return NotFound("no device manager exposes device '" + device_id + "'");
  }
  const ManagerAddress& manager = managers_[*index];

  auto opened = open_session_with_retry(
      manager, session,
      manager.prefer_shared_memory && manager.node_shm != nullptr,
      /*keep_connection=*/true);
  if (!opened.ok()) return opened.status();
  const proto::OpenSessionResp& resp = opened.value().resp;

  std::shared_ptr<shm::Segment> segment;
  if (resp.shared_memory_granted && manager.node_shm != nullptr) {
    const std::string name = manager.endpoint->address() + ":sess:" +
                             std::to_string(resp.session_id);
    auto shm_segment = manager.node_shm->open(name);
    if (shm_segment.ok()) {
      segment = shm_segment.value();
    } else {
      BF_LOG_WARN("remote") << "shm granted but segment missing: "
                            << shm_segment.status().to_string()
                            << " — falling back to gRPC data path";
    }
  }

  return std::unique_ptr<ocl::Context>(std::make_unique<RemoteContext>(
      opened.value().connection, &session, resp.session_id,
      to_device_info(resp.device), std::move(segment),
      manager.call_options));
}

}  // namespace bf::remote
