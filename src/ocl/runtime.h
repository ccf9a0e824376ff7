// Runtime / Context / CommandQueue / Event interfaces.
//
// Blocking semantics follow OpenCL: a blocking enqueue returns after the
// operation completes (and advances the session's virtual clock to the
// completion time); a non-blocking enqueue returns an Event that can be
// polled (clGetEventInfo) or waited on (clWaitForEvents).
#pragma once

#include <memory>
#include <span>

#include "common/bytes.h"
#include "common/status.h"
#include "ocl/session.h"
#include "ocl/types.h"
#include "vt/time.h"

namespace bf::ocl {

class Event {
 public:
  virtual ~Event() = default;

  // Non-blocking status poll. Never advances the session clock.
  [[nodiscard]] virtual EventStatus status() const = 0;

  // Blocks until complete (or failed); advances the session clock to the
  // completion timestamp. Returns the operation's status.
  virtual Status wait() = 0;

  // Modeled completion time; only meaningful once status() == kComplete.
  [[nodiscard]] virtual vt::Time completion_time() const = 0;
};

using EventPtr = std::shared_ptr<Event>;

// clWaitForEvents analogue: waits on all, returns first error (if any).
Status wait_all(std::span<const EventPtr> events);

using EventWaitList = std::span<const EventPtr>;

class CommandQueue {
 public:
  virtual ~CommandQueue() = default;

  // clEnqueueWriteBuffer. `data` must stay alive until the event completes
  // when non-blocking. The operation may not start before every event in
  // `wait_list` has completed (cross-queue dependencies; the wait-list
  // events must come from the same context and their commands must already
  // be flushed).
  virtual Result<EventPtr> enqueue_write(const Buffer& buffer,
                                         std::uint64_t offset, ByteSpan data,
                                         bool blocking,
                                         EventWaitList wait_list = {}) = 0;

  // Ownership-transfer variant: the queue may move `data` into its
  // transport instead of copying (modeled transfer costs are charged
  // identically). Default implementation copies via the span overload;
  // transports that can take ownership override it. On failure the buffer
  // may or may not have been consumed.
  virtual Result<EventPtr> enqueue_write(const Buffer& buffer,
                                         std::uint64_t offset, Bytes&& data,
                                         bool blocking,
                                         EventWaitList wait_list = {}) {
    return enqueue_write(buffer, offset, ByteSpan{data}, blocking, wait_list);
  }

  // clEnqueueReadBuffer. `out` must stay alive until the event completes
  // when non-blocking.
  virtual Result<EventPtr> enqueue_read(const Buffer& buffer,
                                        std::uint64_t offset,
                                        MutableByteSpan out, bool blocking,
                                        EventWaitList wait_list = {}) = 0;

  // clEnqueueNDRangeKernel. Snapshots the kernel's current args.
  virtual Result<EventPtr> enqueue_kernel(const Kernel& kernel, NdRange range,
                                          EventWaitList wait_list = {}) = 0;

  // clFlush: submits all queued commands (seals the current task in
  // BlastFunction terms). Non-blocking.
  virtual Status flush() = 0;

  // clFinish: flush + wait for everything previously enqueued.
  virtual Status finish() = 0;
};

class Context {
 public:
  virtual ~Context() = default;

  [[nodiscard]] virtual const DeviceInfo& device() const = 0;
  [[nodiscard]] virtual Session& session() = 0;

  // clCreateProgramWithBinary + clBuildProgram: requests the named bitstream
  // on the device. May trigger (or request) board reconfiguration.
  virtual Status program(const std::string& bitstream_id) = 0;

  // clCreateBuffer / clReleaseMemObject.
  virtual Result<Buffer> create_buffer(std::uint64_t size) = 0;
  virtual Status release_buffer(const Buffer& buffer) = 0;

  // clCreateKernel. The kernel must exist in the programmed bitstream.
  virtual Result<Kernel> create_kernel(const std::string& name) = 0;

  // clCreateCommandQueue (in-order).
  virtual Result<std::unique_ptr<CommandQueue>> create_queue() = 0;

  // Virtual-time promise for a context the application leaves idle: no
  // call on it will be stamped earlier than `bound` until its next call or
  // announce. Time::infinite() parks it (docs/VIRTUAL_TIME.md, "Parked
  // sessions"). Remote contexts forward it to their Device Manager's gate;
  // contexts without a gate ignore it.
  virtual void announce_idle(vt::Time bound) { (void)bound; }
};

class Runtime {
 public:
  virtual ~Runtime() = default;

  [[nodiscard]] virtual std::string name() const = 0;

  // clGetPlatformIDs / clGetDeviceIDs.
  virtual Result<std::vector<PlatformInfo>> platforms() = 0;
  virtual Result<std::vector<DeviceInfo>> devices() = 0;

  // clCreateContext for one device. The session provides the application's
  // virtual clock; it must outlive the context.
  virtual Result<std::unique_ptr<Context>> create_context(
      const std::string& device_id, Session& session) = 0;
};

}  // namespace bf::ocl
