// Tasks: the atomic unit of execution of BlastFunction (paper §III-B).
//
// Command-queue calls accumulate per (client, queue) into a Task; a flush
// (explicit clFlush/clFinish or any blocking call) seals the task and sends
// it to the Device Manager's central queue, where a worker thread executes
// tasks one at a time on the FPGA. Each operation carries the client event
// tag (op_id) so completions are notified punctually even though operations
// execute in groups.
#pragma once

#include <array>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/status.h"
#include "proto/messages.h"
#include "trace/span.h"
#include "vt/time.h"

namespace bf::devmgr {

struct Operation {
  enum class Kind { kWrite, kRead, kKernel, kFinish };
  Kind kind = Kind::kFinish;
  std::uint64_t op_id = 0;
  std::uint64_t queue_id = 0;

  // Buffer ops.
  std::uint64_t buffer_id = 0;
  std::uint64_t offset = 0;
  std::uint64_t size = 0;
  bool use_shm = false;
  std::int64_t shm_slot = -1;  // staged write payload (shm path)
  Bytes inline_data;           // staged write payload (gRPC path)
  bool data_ready = false;     // BUFFER phase arrived

  // Kernel ops.
  std::uint64_t kernel_id = 0;
  std::vector<proto::KernelArgMsg> args;
  std::array<std::uint64_t, 3> global_size = {1, 1, 1};

  // Event wait list: this op may not start before these ops completed.
  std::vector<std::uint64_t> wait_op_ids;

  // Request trace context propagated from the enqueueing client (invalid
  // when the request is untraced); the span id is the client's rpc span.
  trace::SpanContext trace;
};

// Blocks a dispatcher thread until the worker has executed a board
// reconfiguration (the one synchronous method that must serialize with the
// command stream).
class ProgramWaiter {
 public:
  void complete(Status status, vt::Time end) {
    {
      std::lock_guard lock(mutex_);
      status_ = std::move(status);
      end_ = end;
      done_ = true;
    }
    // Exactly one dispatcher ever waits on a ProgramWaiter (the one that
    // accepted the kProgram call), and complete() fires once.
    cv_.notify_one();
  }

  // Returns (status, completion time).
  std::pair<Status, vt::Time> wait() {
    std::unique_lock lock(mutex_);
    cv_.wait(lock, [&] { return done_; });
    return {status_, end_};
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  bool done_ = false;
  Status status_;
  vt::Time end_;
};

struct Task {
  std::uint64_t seq = 0;  // per-manager admission counter
  std::uint64_t session_id = 0;
  std::string client_id;  // deterministic tiebreaker for equal ready stamps
  std::uint64_t queue_id = 0;
  vt::Time ready;  // modeled arrival of the sealing flush
  std::vector<Operation> ops;

  // Batching metadata, derived at seal time: a task is batchable iff it is
  // exactly one dependency-free kernel launch moving a small number of bytes;
  // batch_key is the kernel name (only same-kernel launches coalesce).
  bool batchable = false;
  std::string batch_key;

  // Board reconfiguration rides the central queue as a special task so it
  // blocks every other operation (paper §III-B).
  bool is_program = false;
  std::string bitstream_id;
  std::shared_ptr<ProgramWaiter> program_waiter;

  [[nodiscard]] bool empty() const { return ops.empty() && !is_program; }
};

}  // namespace bf::devmgr
