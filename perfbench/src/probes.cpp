#include "probes.h"

#include <sys/resource.h>

#include <atomic>
#include <mutex>

namespace perfbench {

const char* call_name(Call call) {
  static constexpr const char* kNames[] = {
      "deploy",        "warm",         "invoke",         "handle_request",
      "setup",         "program",      "create_buffer",  "release_buffer",
      "create_kernel", "create_queue", "write",          "write_blocking",
      "read",          "read_blocking", "kernel",        "flush",
      "finish"};
  static_assert(std::size(kNames) == std::size_t(Call::kCount));
  return kNames[std::size_t(call)];
}

bool is_ocl_call(Call call) {
  return call >= Call::kProgram && call <= Call::kFinish;
}

bool is_queue_call(Call call) {
  return call >= Call::kWrite && call <= Call::kFinish;
}

bool is_blocking_call(Call call) {
  return call == Call::kWriteBlocking || call == Call::kReadBlocking ||
         call == Call::kFinish;
}

std::int64_t steady_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double process_cpu_s() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto sec = [](const timeval& tv) {
    return double(tv.tv_sec) + double(tv.tv_usec) / 1e6;
  };
  return sec(usage.ru_utime) + sec(usage.ru_stime);
}

// ---- SpanLog ----------------------------------------------------------------

namespace {

std::atomic<bool> g_enabled{false};

// Logs outlive the threads that wrote them (tenant threads end before the
// round is drained), so the registry owns them.
struct LogRegistry {
  std::mutex mutex;
  std::vector<std::unique_ptr<std::vector<Span>>> logs;
};

LogRegistry& registry() {
  static LogRegistry instance;
  return instance;
}

struct ThreadState {
  std::vector<Span>* log = nullptr;
  std::uint32_t thread = 0;
  std::uint32_t parent = 0;
  std::uint64_t request = 0;
};
thread_local ThreadState t_state;

std::vector<Span>& thread_log() {
  if (t_state.log == nullptr) {
    LogRegistry& reg = registry();
    std::lock_guard lock(reg.mutex);
    reg.logs.push_back(std::make_unique<std::vector<Span>>());
    t_state.log = reg.logs.back().get();
    t_state.log->reserve(1 << 12);
    t_state.thread = std::uint32_t(reg.logs.size() - 1);
  }
  return *t_state.log;
}

}  // namespace

void SpanLog::set_enabled(bool enabled) {
  g_enabled.store(enabled, std::memory_order_relaxed);
}

bool SpanLog::enabled() { return g_enabled.load(std::memory_order_relaxed); }

void SpanLog::set_request(std::uint64_t request) { t_state.request = request; }

std::vector<std::vector<Span>> SpanLog::drain() {
  LogRegistry& reg = registry();
  std::lock_guard lock(reg.mutex);
  std::vector<std::vector<Span>> out;
  out.reserve(reg.logs.size());
  // Callers drain between rounds, when no thread is recording; swapping
  // keeps each log's identity (and a live thread's pointer) valid.
  for (auto& log : reg.logs) {
    out.emplace_back();
    out.back().swap(*log);
  }
  return out;
}

SpanLog::Scope::Scope(Call call) {
  if (!enabled()) return;
  log_ = &thread_log();
  Span span;
  span.call = call;
  span.thread = t_state.thread;
  span.parent = t_state.parent;
  span.request = t_state.request;
  log_->push_back(span);
  index_ = std::uint32_t(log_->size());
  saved_parent_ = t_state.parent;
  t_state.parent = index_;
  // Stamp last so the bookkeeping above is not charged to the call.
  (*log_)[index_ - 1].start_ns = steady_ns();
}

SpanLog::Scope::~Scope() {
  if (log_ == nullptr) return;
  (*log_)[index_ - 1].end_ns = steady_ns();
  t_state.parent = saved_parent_;
}

// ---- Decorators ------------------------------------------------------------

using bf::Result;
using bf::Status;
namespace ocl = bf::ocl;

Result<ocl::EventPtr> TracedQueue::enqueue_write(
    const ocl::Buffer& buffer, std::uint64_t offset, bf::ByteSpan data,
    bool blocking, ocl::EventWaitList wait_list) {
  SpanLog::Scope scope(blocking ? Call::kWriteBlocking : Call::kWrite);
  return inner_->enqueue_write(buffer, offset, data, blocking, wait_list);
}

Result<ocl::EventPtr> TracedQueue::enqueue_write(
    const ocl::Buffer& buffer, std::uint64_t offset, bf::Bytes&& data,
    bool blocking, ocl::EventWaitList wait_list) {
  SpanLog::Scope scope(blocking ? Call::kWriteBlocking : Call::kWrite);
  return inner_->enqueue_write(buffer, offset, std::move(data), blocking,
                               wait_list);
}

Result<ocl::EventPtr> TracedQueue::enqueue_read(
    const ocl::Buffer& buffer, std::uint64_t offset, bf::MutableByteSpan out,
    bool blocking, ocl::EventWaitList wait_list) {
  SpanLog::Scope scope(blocking ? Call::kReadBlocking : Call::kRead);
  return inner_->enqueue_read(buffer, offset, out, blocking, wait_list);
}

Result<ocl::EventPtr> TracedQueue::enqueue_kernel(
    const ocl::Kernel& kernel, ocl::NdRange range,
    ocl::EventWaitList wait_list) {
  SpanLog::Scope scope(Call::kKernel);
  return inner_->enqueue_kernel(kernel, range, wait_list);
}

Status TracedQueue::flush() {
  SpanLog::Scope scope(Call::kFlush);
  return inner_->flush();
}

Status TracedQueue::finish() {
  SpanLog::Scope scope(Call::kFinish);
  return inner_->finish();
}

Status TracedContext::program(const std::string& bitstream_id) {
  SpanLog::Scope scope(Call::kProgram);
  return inner_.program(bitstream_id);
}

Result<ocl::Buffer> TracedContext::create_buffer(std::uint64_t size) {
  SpanLog::Scope scope(Call::kCreateBuffer);
  return inner_.create_buffer(size);
}

Status TracedContext::release_buffer(const ocl::Buffer& buffer) {
  SpanLog::Scope scope(Call::kReleaseBuffer);
  return inner_.release_buffer(buffer);
}

Result<ocl::Kernel> TracedContext::create_kernel(const std::string& name) {
  SpanLog::Scope scope(Call::kCreateKernel);
  return inner_.create_kernel(name);
}

Result<std::unique_ptr<ocl::CommandQueue>> TracedContext::create_queue() {
  SpanLog::Scope scope(Call::kCreateQueue);
  auto queue = inner_.create_queue();
  if (!queue.ok()) return queue.status();
  return std::unique_ptr<ocl::CommandQueue>(
      std::make_unique<TracedQueue>(std::move(queue.value())));
}

ocl::Context& ProbedWorkload::wrap(ocl::Context& context) {
  if (!traced_) return context;
  if (traced_context_ == nullptr || &traced_context_->inner() != &context) {
    traced_context_ = std::make_unique<TracedContext>(context);
  }
  return *traced_context_;
}

Status ProbedWorkload::setup(ocl::Context& context) {
  SpanLog::Scope scope(Call::kSetup);
  return inner_->setup(wrap(context));
}

Status ProbedWorkload::handle_request(ocl::Context& context) {
  SpanLog::Scope scope(Call::kHandle);
  return inner_->handle_request(wrap(context));
}

void ProbedWorkload::teardown() {
  inner_->teardown();
  traced_context_.reset();
}

}  // namespace perfbench
