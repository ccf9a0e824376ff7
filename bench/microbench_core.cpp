// Wall-clock micro-benchmarks of the library's own hot paths (these measure
// the real implementation, not modeled time): wire-format encode/decode,
// shared-memory staging, device-memory allocation, the conservative gate
// and the functional kernels.
#include <benchmark/benchmark.h>

#include <utility>

#include "common/bytes.h"
#include "fault/injector.h"
#include "net/endpoint.h"
#include "proto/messages.h"
#include "proto/wire.h"
#include "shm/segment.h"
#include "sim/board.h"
#include "sim/kernels.h"
#include "sim/memory.h"
#include "vt/gate.h"

namespace bf {
namespace {

void BM_WireVarint(benchmark::State& state) {
  for (auto _ : state) {
    proto::Writer writer;
    writer.reserve(64 * 10);
    for (std::uint64_t i = 0; i < 64; ++i) {
      writer.varint(1ULL << i);  // every encoded length, 1..10 bytes
    }
    benchmark::DoNotOptimize(writer.bytes().data());
  }
}
BENCHMARK(BM_WireVarint);

void BM_Fingerprint(benchmark::State& state) {
  const std::size_t size = static_cast<std::size_t>(state.range(0));
  Bytes data(size, 0x5C);
  for (auto _ : state) {
    std::uint64_t hash = fingerprint(ByteSpan{data});
    benchmark::DoNotOptimize(hash);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(size));
}
BENCHMARK(BM_Fingerprint)->Range(4 << 10, 4 << 20);

void BM_MessageRoundtrip(benchmark::State& state) {
  proto::EnqueueKernelReq request;
  request.op_id = 42;
  request.queue_id = 7;
  request.kernel_id = 3;
  for (int i = 0; i < 14; ++i) {
    proto::KernelArgMsg arg;
    arg.kind = proto::KernelArgMsg::Kind::kInt;
    arg.int_value = i * 100;
    request.args.push_back(arg);
  }
  for (auto _ : state) {
    auto decoded = proto::reencode(request);
    benchmark::DoNotOptimize(decoded.ok());
  }
}
BENCHMARK(BM_MessageRoundtrip);

void BM_ShmStageFetch(benchmark::State& state) {
  // Ownership-transfer round trip: stage(Bytes&&) moves the buffer into the
  // slot and fetch_take moves it back out, so no bytes are physically
  // copied (the modeled copy cost is still charged to the cursor).
  const std::size_t size = static_cast<std::size_t>(state.range(0));
  shm::Segment segment(sim::CopyModel(13e9), 1ULL << 30);
  Bytes data(size, 0xAB);
  vt::Cursor cursor;
  for (auto _ : state) {
    auto slot = segment.stage(std::move(data), cursor);
    benchmark::DoNotOptimize(slot.ok());
    auto taken = segment.fetch_take(slot.value(), cursor);
    benchmark::DoNotOptimize(taken.ok());
    data = std::move(taken.value());  // ping-pong the buffer back
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(size) * 2);
}
BENCHMARK(BM_ShmStageFetch)->Range(4 << 10, 4 << 20);

void BM_ShmStageFetchCopy(benchmark::State& state) {
  // Physical-copy baseline: the span overloads memcpy in and out. Kept as
  // the reference point for what the move path above eliminates.
  const std::size_t size = static_cast<std::size_t>(state.range(0));
  shm::Segment segment(sim::CopyModel(13e9), 1ULL << 30);
  Bytes data(size, 0xAB);
  Bytes out(size);
  vt::Cursor cursor;
  for (auto _ : state) {
    auto slot = segment.stage(ByteSpan{data}, cursor);
    benchmark::DoNotOptimize(slot.ok());
    Status fetched = segment.fetch(slot.value(), MutableByteSpan{out}, cursor);
    benchmark::DoNotOptimize(fetched.ok());
    (void)segment.release(slot.value());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(size) * 2);
}
BENCHMARK(BM_ShmStageFetchCopy)->Range(4 << 10, 4 << 20);

void BM_FrameRoundtrip(benchmark::State& state) {
  // A notify-sized frame through the dispatcher's queue: build, enqueue,
  // pop. Payload ownership moves the whole way — cost should be O(1) in
  // payload size, not O(size).
  const std::size_t size = 64 << 10;
  net::FrameQueue queue;
  Bytes payload(size, 0xEE);
  for (auto _ : state) {
    net::Frame frame;
    frame.kind = net::Frame::Kind::kNotify;
    frame.method = proto::Method::kOpComplete;
    frame.correlation = 42;
    frame.payload = std::move(payload);
    queue.push(std::move(frame));
    auto popped = queue.try_pop();
    benchmark::DoNotOptimize(popped.has_item());
    payload = std::move(popped.item->payload);  // recycle for the next iteration
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_FrameRoundtrip);

void BM_DeviceMemoryAllocRelease(benchmark::State& state) {
  sim::DeviceMemory memory(1ULL << 30);
  for (auto _ : state) {
    auto a = memory.allocate(64 << 10);
    auto b = memory.allocate(256 << 10);
    benchmark::DoNotOptimize(a.ok() && b.ok());
    (void)memory.release(a.value());
    (void)memory.release(b.value());
  }
}
BENCHMARK(BM_DeviceMemoryAllocRelease);

void BM_GateAnnounceWait(benchmark::State& state) {
  vt::Gate gate;
  auto source = gate.register_source(vt::Time::zero());
  std::int64_t t = 0;
  for (auto _ : state) {
    source.announce(vt::Time::nanos(++t));
    benchmark::DoNotOptimize(gate.wait_safe(vt::Time::nanos(t)));
  }
}
BENCHMARK(BM_GateAnnounceWait);

void BM_SobelKernelFunctional(benchmark::State& state) {
  const std::int64_t dim = state.range(0);
  sim::DeviceMemory memory(1ULL << 28);
  auto in = memory.allocate(static_cast<std::uint64_t>(dim * dim * 4));
  auto out = memory.allocate(static_cast<std::uint64_t>(dim * dim * 4));
  std::vector<std::uint32_t> pixels(static_cast<std::size_t>(dim * dim), 7);
  (void)memory.write(in.value(), 0,
                     as_bytes(pixels.data(), pixels.size() * 4));
  sim::SobelKernel kernel;
  sim::KernelLaunch launch;
  launch.kernel = "sobel";
  launch.args = {in.value(), out.value(), dim, dim};
  for (auto _ : state) {
    Status s = kernel.execute(launch, memory);
    benchmark::DoNotOptimize(s.ok());
  }
  state.SetItemsProcessed(state.iterations() * dim * dim);
}
BENCHMARK(BM_SobelKernelFunctional)->Arg(64)->Arg(256);

void BM_GemmKernelFunctional(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  sim::DeviceMemory memory(1ULL << 28);
  const auto bytes = static_cast<std::uint64_t>(n * n * 4);
  auto a = memory.allocate(bytes);
  auto b = memory.allocate(bytes);
  auto c = memory.allocate(bytes);
  std::vector<float> data(static_cast<std::size_t>(n * n), 1.5F);
  (void)memory.write(a.value(), 0, as_bytes(data.data(), data.size() * 4));
  (void)memory.write(b.value(), 0, as_bytes(data.data(), data.size() * 4));
  sim::MatMulKernel kernel;
  sim::KernelLaunch launch;
  launch.kernel = "mm";
  launch.args = {a.value(), b.value(), c.value(), n};
  for (auto _ : state) {
    Status s = kernel.execute(launch, memory);
    benchmark::DoNotOptimize(s.ok());
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_GemmKernelFunctional)->Arg(64)->Arg(128);

void BM_FaultSiteDisarmed(benchmark::State& state) {
  // The acceptance bar for the instrumentation threaded through net/shm/
  // devmgr/remote: a disarmed site must cost one relaxed atomic load —
  // compare against BM_FaultSiteArmedMiss to see the slow path it avoids.
  for (auto _ : state) {
    bool fired = fault::should_fire(fault::site::kNetSendDelay);
    benchmark::DoNotOptimize(fired);
  }
}
BENCHMARK(BM_FaultSiteDisarmed);

void BM_FaultSiteArmedMiss(benchmark::State& state) {
  // Armed but untriggered site: the per-site arm flag short-circuits the
  // locked map lookup, so this costs ~two relaxed loads (global + site).
  fault::ScopedInjection inject(1);
  for (auto _ : state) {
    bool fired = fault::should_fire(fault::site::kNetSendDelay);
    benchmark::DoNotOptimize(fired);
  }
}
BENCHMARK(BM_FaultSiteArmedMiss);

}  // namespace
}  // namespace bf

BENCHMARK_MAIN();
