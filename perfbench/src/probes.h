// Outside-in probes for the end-to-end benchmark. Nothing here reaches into
// src/: every span is recorded around a call the benchmark makes (or that a
// decorated workload makes) into a module's public interface.
//
//  * SpanLog keeps host-clock spans in memory, one append-only log per
//    thread, and is drained after a round. Each span names the call, the
//    request it served (0 = set-up) and its parent on the same thread, so a
//    layer's self time is its span minus its children.
//  * ProbedWorkload decorates a workloads::Workload. Untraced it only
//    forwards; traced it hands the inner workload a TracedContext, whose
//    queues are TracedQueues, so every ocl call the remote library serves is
//    timed from outside.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "ocl/runtime.h"
#include "workloads/workload.h"

namespace perfbench {

enum class Call : std::uint8_t {
  kDeploy,         // Testbed::deploy_blastfunction
  kWarm,           // Gateway::warm
  kInvoke,         // FunctionInstance::invoke
  kHandle,         // Workload::handle_request
  kSetup,          // Workload::setup (cold start)
  kProgram,        // Context::program
  kCreateBuffer,   // Context::create_buffer
  kReleaseBuffer,  // Context::release_buffer
  kCreateKernel,   // Context::create_kernel
  kCreateQueue,    // Context::create_queue
  kWrite,          // CommandQueue::enqueue_write, non-blocking
  kWriteBlocking,  // CommandQueue::enqueue_write, blocking
  kRead,           // CommandQueue::enqueue_read, non-blocking
  kReadBlocking,   // CommandQueue::enqueue_read, blocking
  kKernel,         // CommandQueue::enqueue_kernel
  kFlush,          // CommandQueue::flush
  kFinish,         // CommandQueue::finish
  kCount,
};

[[nodiscard]] const char* call_name(Call call);
// Calls into the ocl API (Context and CommandQueue), the leaves of a trace.
[[nodiscard]] bool is_ocl_call(Call call);
[[nodiscard]] bool is_queue_call(Call call);
// Calls that return only once the device has finished the work.
[[nodiscard]] bool is_blocking_call(Call call);

struct Span {
  Call call = Call::kCount;
  std::uint32_t thread = 0;  // log index; parents live on the same thread
  std::uint32_t parent = 0;  // 1-based index into the thread's log, 0 = root
  std::uint64_t request = 0;
  std::int64_t start_ns = 0;  // steady_clock
  std::int64_t end_ns = 0;

  [[nodiscard]] double us() const { return double(end_ns - start_ns) / 1e3; }
};

class SpanLog {
 public:
  static void set_enabled(bool enabled);
  [[nodiscard]] static bool enabled();

  // Request id stamped on spans this thread opens from now on.
  static void set_request(std::uint64_t request);

  // Every span recorded since the last drain, thread by thread; `parent`
  // indexes into the same thread's run of spans.
  [[nodiscard]] static std::vector<std::vector<Span>> drain();

  // Times one call on the current thread while the log is enabled.
  class Scope {
   public:
    explicit Scope(Call call);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    std::vector<Span>* log_ = nullptr;
    std::uint32_t index_ = 0;  // 1-based
    std::uint32_t saved_parent_ = 0;
  };
};

[[nodiscard]] std::int64_t steady_ns();
// Process CPU time, user + system, all threads.
[[nodiscard]] double process_cpu_s();

class TracedQueue final : public bf::ocl::CommandQueue {
 public:
  explicit TracedQueue(std::unique_ptr<bf::ocl::CommandQueue> inner)
      : inner_(std::move(inner)) {}

  bf::Result<bf::ocl::EventPtr> enqueue_write(
      const bf::ocl::Buffer& buffer, std::uint64_t offset, bf::ByteSpan data,
      bool blocking, bf::ocl::EventWaitList wait_list) override;
  bf::Result<bf::ocl::EventPtr> enqueue_write(
      const bf::ocl::Buffer& buffer, std::uint64_t offset, bf::Bytes&& data,
      bool blocking, bf::ocl::EventWaitList wait_list) override;
  bf::Result<bf::ocl::EventPtr> enqueue_read(
      const bf::ocl::Buffer& buffer, std::uint64_t offset,
      bf::MutableByteSpan out, bool blocking,
      bf::ocl::EventWaitList wait_list) override;
  bf::Result<bf::ocl::EventPtr> enqueue_kernel(
      const bf::ocl::Kernel& kernel, bf::ocl::NdRange range,
      bf::ocl::EventWaitList wait_list) override;
  bf::Status flush() override;
  bf::Status finish() override;

 private:
  std::unique_ptr<bf::ocl::CommandQueue> inner_;
};

class TracedContext final : public bf::ocl::Context {
 public:
  explicit TracedContext(bf::ocl::Context& inner) : inner_(inner) {}

  [[nodiscard]] bf::ocl::Context& inner() { return inner_; }

  [[nodiscard]] const bf::ocl::DeviceInfo& device() const override {
    return inner_.device();
  }
  [[nodiscard]] bf::ocl::Session& session() override {
    return inner_.session();
  }
  bf::Status program(const std::string& bitstream_id) override;
  bf::Result<bf::ocl::Buffer> create_buffer(std::uint64_t size) override;
  bf::Status release_buffer(const bf::ocl::Buffer& buffer) override;
  bf::Result<bf::ocl::Kernel> create_kernel(const std::string& name) override;
  bf::Result<std::unique_ptr<bf::ocl::CommandQueue>> create_queue() override;

 private:
  bf::ocl::Context& inner_;
};

// Workload decorator. `traced` selects whether the inner workload sees the
// function's context directly or through a TracedContext.
class ProbedWorkload final : public bf::workloads::Workload {
 public:
  ProbedWorkload(bf::workloads::WorkloadPtr inner, bool traced)
      : inner_(std::move(inner)), traced_(traced) {}

  [[nodiscard]] bf::workloads::Workload& inner() { return *inner_; }

  [[nodiscard]] std::string name() const override { return inner_->name(); }
  [[nodiscard]] std::string bitstream() const override {
    return inner_->bitstream();
  }
  [[nodiscard]] std::string accelerator() const override {
    return inner_->accelerator();
  }
  bf::Status setup(bf::ocl::Context& context) override;
  bf::Status handle_request(bf::ocl::Context& context) override;
  void teardown() override;
  [[nodiscard]] std::uint64_t request_bytes_in() const override {
    return inner_->request_bytes_in();
  }
  [[nodiscard]] std::uint64_t request_bytes_out() const override {
    return inner_->request_bytes_out();
  }

 private:
  bf::ocl::Context& wrap(bf::ocl::Context& context);

  bf::workloads::WorkloadPtr inner_;
  bool traced_;
  std::unique_ptr<TracedContext> traced_context_;
};

}  // namespace perfbench
