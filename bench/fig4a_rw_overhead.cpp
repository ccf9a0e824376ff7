// Figure 4(a): Round-Trip Time of a write-then-read pair versus total
// transferred size (1 KB .. 2 GB), for Native, BlastFunction (gRPC data
// path) and BlastFunction shm.
//
// Paper shape to reproduce: the gRPC path is ~4x Native at the large end
// (protobuf + 3 extra copies); the shm path tracks Native with a single-copy
// overhead (~155 ms at 2 GB) plus the ~2 ms control floor.
#include <cstdio>
#include <vector>

#include "experiment.h"

namespace bf::bench {
namespace {

// RTT of one blocking write + blocking read of `half` bytes each.
double rw_rtt_ms(OverheadRig& rig, std::uint64_t half, int reps) {
  ocl::Session session("fig4a");
  auto devices = rig.runtime().devices();
  BF_CHECK(devices.ok());
  auto context = rig.runtime().create_context(devices.value()[0].id, session);
  BF_CHECK(context.ok());
  BF_CHECK(context.value()->program(sim::BitstreamLibrary::kVadd).ok());
  auto buffer = context.value()->create_buffer(half);
  BF_CHECK(buffer.ok());
  auto queue = context.value()->create_queue();
  BF_CHECK(queue.ok());

  Bytes payload(half, 0xA5);
  Bytes read_back(half);
  // Warm call (first-touch costs), then measured repetitions; the paper
  // averages 40 runs with 200 ms idle gaps — the simulation is
  // deterministic, so a handful suffices.
  double total_ms = 0.0;
  for (int i = 0; i <= reps; ++i) {
    const vt::Time before = session.now();
    BF_CHECK(queue.value()
                 ->enqueue_write(buffer.value(), 0, ByteSpan{payload}, true)
                 .ok());
    BF_CHECK(queue.value()
                 ->enqueue_read(buffer.value(), 0, MutableByteSpan{read_back},
                                true)
                 .ok());
    if (i > 0) total_ms += (session.now() - before).ms();
    session.compute(vt::Duration::millis(200));  // paper's inter-call gap
  }
  return total_ms / reps;
}

}  // namespace
}  // namespace bf::bench

int main() {
  using namespace bf;
  using namespace bf::bench;

  const std::uint64_t max_total = fig_smoke() ? 4 * kMiB : 2 * kGiB;
  std::vector<std::uint64_t> totals;
  for (std::uint64_t total = kKiB; total <= max_total; total *= 4) {
    totals.push_back(total);
  }
  if (!fig_smoke()) totals.push_back(2 * kGiB);

  std::printf("Figure 4(a): R/W round-trip latency vs total size\n");
  std::printf("%-8s | %12s | %16s | %18s | %8s | %9s\n", "size",
              "Native (ms)", "BlastFunction(ms)", "BlastFunction shm",
              "grpc/nat", "shm - nat");
  std::printf("%s\n", std::string(88, '-').c_str());

  double last_ratio = 0.0;
  double last_shm_delta = 0.0;
  for (std::uint64_t total : totals) {
    const std::uint64_t half = total / 2;
    if (half == 0) continue;
    const int reps = total >= 256 * kMiB ? 2 : 4;
    OverheadRig native(DataPath::kNative);
    OverheadRig grpc(DataPath::kGrpc);
    OverheadRig shm(DataPath::kShm);
    const double native_ms = rw_rtt_ms(native, half, reps);
    const double grpc_ms = rw_rtt_ms(grpc, half, reps);
    const double shm_ms = rw_rtt_ms(shm, half, reps);
    check_no_stall_fallbacks(grpc);
    check_no_stall_fallbacks(shm);
    last_ratio = grpc_ms / native_ms;
    last_shm_delta = shm_ms - native_ms;
    std::printf("%-8s | %12.3f | %16.3f | %18.3f | %7.2fx | %6.1f ms\n",
                human_size(total).c_str(), native_ms, grpc_ms, shm_ms,
                last_ratio, last_shm_delta);
  }

  std::printf("\nShape checks vs paper:\n");
  std::printf("  gRPC/Native at 2GB  : %.2fx   (paper: ~4x)\n", last_ratio);
  std::printf("  shm overhead at 2GB : %.1f ms (paper: ~155 ms)\n",
              last_shm_delta);
  return 0;
}
