// Device Manager service protocol (the paper's gRPC service, §III-B).
//
// Two method families:
//  * context & information methods — synchronous request/response
//    (session open, device info, program/reconfigure, buffer and kernel and
//    queue management);
//  * command-queue methods — asynchronous, multi-phase. Each op carries a
//    client-chosen op_id (the paper's "tag": a pointer to the client event).
//    Phases mirror the remote library's event state machine:
//      INIT  -> Enqueue*Req (metadata)
//      FIRST <- OpEnqueued
//      BUFFER-> WriteData / <- data inside OpComplete for reads
//      COMPLETE <- OpComplete
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/status.h"

namespace bf::proto {

enum class Method : std::uint32_t {
  kOpenSession = 1,
  kGetDeviceInfo = 2,
  kProgram = 3,
  kCreateBuffer = 4,
  kReleaseBuffer = 5,
  kCreateKernel = 6,
  kCreateQueue = 7,
  kReleaseQueue = 8,
  kHealthCheck = 9,
  kEnqueueWrite = 16,
  kWriteData = 17,
  kEnqueueRead = 18,
  kEnqueueKernel = 19,
  kFlush = 20,
  kFinish = 21,
  // Server -> client notifications.
  kOpEnqueued = 32,
  kOpComplete = 33,
};

std::string_view to_string(Method method);
[[nodiscard]] bool is_command_queue_method(Method method);

// Methods safe to retry after a lost reply: re-execution (or a duplicate
// server-side execution whose first reply was dropped) does not change
// observable state. Resource *creation* methods are excluded — a retried
// CreateBuffer whose first reply was lost would leak the first buffer.
// OpenSession qualifies because the Device Manager re-acks the existing
// session on a duplicate open over the same connection.
[[nodiscard]] bool is_idempotent(Method method);

// --- Shared submessages -----------------------------------------------------

struct StatusMsg {
  std::uint32_t code = 0;  // StatusCode as integer
  std::string message;

  static StatusMsg from(const Status& status);
  [[nodiscard]] Status to_status() const;
};

struct DeviceDescriptor {
  std::string id;
  std::string name;
  std::string vendor;
  std::string platform;
  std::string node;
  std::string accelerator;
  std::uint64_t global_memory_bytes = 0;
};

struct KernelArgMsg {
  enum class Kind : std::uint32_t { kUnset = 0, kBuffer = 1, kInt = 2, kDouble = 3 };
  Kind kind = Kind::kUnset;
  std::uint64_t buffer_id = 0;
  std::int64_t int_value = 0;
  double double_value = 0.0;
};

// --- Context & information methods -------------------------------------------

struct OpenSessionReq {
  std::string client_id;
  bool use_shared_memory = false;
};

struct OpenSessionResp {
  StatusMsg status;
  std::uint64_t session_id = 0;
  bool shared_memory_granted = false;
  DeviceDescriptor device;
};

struct ProgramReq {
  std::string bitstream_id;
};

struct ProgramResp {
  StatusMsg status;
  bool reconfigured = false;
};

struct CreateBufferReq {
  std::uint64_t size = 0;
};

struct CreateBufferResp {
  StatusMsg status;
  std::uint64_t buffer_id = 0;
};

struct ReleaseBufferReq {
  std::uint64_t buffer_id = 0;
};

struct CreateKernelReq {
  std::string name;
};

struct CreateKernelResp {
  StatusMsg status;
  std::uint64_t kernel_id = 0;
  std::uint64_t arity = 0;
};

struct CreateQueueResp {
  StatusMsg status;
  std::uint64_t queue_id = 0;
};

// Generic status-only response (release buffer/queue, flush ack, ...).
struct AckResp {
  StatusMsg status;
};

// Liveness + load probe (request body is empty). The registry's gatherer
// polls this to drive unhealthy-board detection and migration; `accepting`
// goes false once the manager has begun shutting down.
struct HealthResp {
  StatusMsg status;
  std::uint64_t queue_depth = 0;    // sealed tasks waiting in the FIFO
  std::uint64_t sessions = 0;       // open client sessions
  std::uint64_t ops_executed = 0;   // lifetime completed operations
  bool accepting = true;
};

// --- Command-queue methods ----------------------------------------------------

struct EnqueueWriteReq {
  std::uint64_t op_id = 0;
  std::uint64_t queue_id = 0;
  std::uint64_t buffer_id = 0;
  std::uint64_t offset = 0;
  std::uint64_t size = 0;
  // Event wait list: ops that must complete before this one starts.
  std::vector<std::uint64_t> wait_op_ids;
  // Request trace context (0 = untraced; only encoded when set, so untraced
  // messages are byte-identical to pre-tracing builds).
  std::uint64_t trace_id = 0;
  std::uint64_t parent_span = 0;
};

// BUFFER phase of a write. Exactly one of `data` (gRPC path, bytes inline)
// or `shm_slot` (shared-memory path) is used; `size` is always set so the
// manager can charge transfer costs without touching the payload.
struct WriteData {
  std::uint64_t op_id = 0;
  std::uint64_t size = 0;
  std::int64_t shm_slot = -1;
  Bytes data;
  // Encode-only alternative to `data`: when non-empty, encode() serializes
  // this view instead of copying the payload into the message first. The
  // caller must keep the viewed buffer alive across encode(). decode()
  // always fills `data`.
  ByteSpan data_view;
};

struct EnqueueReadReq {
  std::uint64_t op_id = 0;
  std::uint64_t queue_id = 0;
  std::uint64_t buffer_id = 0;
  std::uint64_t offset = 0;
  std::uint64_t size = 0;
  bool use_shared_memory = false;
  std::vector<std::uint64_t> wait_op_ids;
  std::uint64_t trace_id = 0;     // see EnqueueWriteReq
  std::uint64_t parent_span = 0;
};

struct EnqueueKernelReq {
  std::uint64_t op_id = 0;
  std::uint64_t queue_id = 0;
  std::uint64_t kernel_id = 0;
  std::vector<KernelArgMsg> args;
  std::array<std::uint64_t, 3> global_size = {1, 1, 1};
  std::vector<std::uint64_t> wait_op_ids;
  std::uint64_t trace_id = 0;     // see EnqueueWriteReq
  std::uint64_t parent_span = 0;
};

// FlushReq field 2 and FinishReq field 3 are retired (a completion deadline
// nothing reads). Do not reuse them: bytes from older encoders still carry
// them and must decode with them skipped as unknown fields.
struct FlushReq {
  std::uint64_t queue_id = 0;
};

// Finish = flush + completion notification carrying this op_id.
struct FinishReq {
  std::uint64_t op_id = 0;
  std::uint64_t queue_id = 0;
};

// --- Server -> client notifications ------------------------------------------

struct OpEnqueued {
  std::uint64_t op_id = 0;
};

struct OpComplete {
  std::uint64_t op_id = 0;
  StatusMsg status;
  // Read results: inline bytes (gRPC) or an shm slot reference.
  std::int64_t shm_slot = -1;
  Bytes data;
  std::uint64_t size = 0;
  // Set by decode_view() instead of `data`; views the decoded frame's
  // payload buffer, so it is valid only while that buffer lives. encode()
  // serializes it when non-empty (same contract as WriteData::data_view).
  ByteSpan data_view;
};

// --- Codec -------------------------------------------------------------------
//
// Each message's fields are declared once, in its field list in
// messages.cpp; encode and decode are derived from that list and
// instantiated there for every message type above.

// The message's wire encoding, fields in ascending field-number order.
template <typename T>
Bytes encode(const T& message);

// Decodes a T. Unknown field numbers are skipped; a truncated field or a
// known field with the wrong wire type fails with InvalidArgument.
template <typename T>
Result<T> decode(ByteSpan bytes);

// Zero-copy decode: identical to decode<OpComplete>() except the payload
// field lands in `data_view`, a view into `bytes`, rather than being copied
// into `data`. Do not use when `bytes` dies before the message.
Result<OpComplete> decode_view(ByteSpan bytes);

// Round-trips any message type through its wire encoding (test helper).
template <typename T>
Result<T> reencode(const T& message) {
  const Bytes bytes = encode(message);
  return decode<T>(ByteSpan{bytes});
}

}  // namespace bf::proto
