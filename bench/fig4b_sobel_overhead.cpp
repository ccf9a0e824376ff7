// Figure 4(b): Sobel operator round-trip latency versus image size, for
// Native / BlastFunction (gRPC) / BlastFunction shm on a single node.
//
// Paper shape: linear in pixel count; Native from 0.27 ms (10x10) to
// ~14.5 ms (1920x1080); the shm path a constant ~2 ms above Native; the
// gRPC path diverging with size (extra copies of ~8 MB per call).
#include <cstdio>
#include <vector>

#include "experiment.h"

namespace bf::bench {
namespace {

double sobel_rtt_ms(OverheadRig& rig, std::size_t width, std::size_t height,
                    int reps) {
  ocl::Session session("fig4b");
  auto devices = rig.runtime().devices();
  BF_CHECK(devices.ok());
  auto context = rig.runtime().create_context(devices.value()[0].id, session);
  BF_CHECK(context.ok());
  workloads::SobelWorkload workload(width, height);
  BF_CHECK(workload.setup(*context.value()).ok());
  double total_ms = 0.0;
  for (int i = 0; i <= reps; ++i) {
    const vt::Time before = session.now();
    BF_CHECK(workload.handle_request(*context.value()).ok());
    if (i > 0) total_ms += (session.now() - before).ms();
    session.compute(vt::Duration::millis(200));
  }
  workload.teardown();
  return total_ms / reps;
}

}  // namespace
}  // namespace bf::bench

int main() {
  using namespace bf;
  using namespace bf::bench;

  std::vector<std::pair<std::size_t, std::size_t>> sizes = {
      {10, 10},    {64, 64},    {128, 128},  {256, 256},
      {512, 512},  {800, 600},  {1024, 768}, {1280, 720},
      {1600, 900}, {1920, 1080}};
  if (fig_smoke()) sizes.resize(4);  // cap at 256x256

  std::printf("Figure 4(b): Sobel operator latency vs image size\n");
  std::printf("%-11s | %10s | %12s | %16s | %18s | %9s\n", "image",
              "R+W bytes", "Native (ms)", "BlastFunction(ms)",
              "BlastFunction shm", "shm - nat");
  std::printf("%s\n", std::string(92, '-').c_str());

  double native_small = 0.0;
  double native_large = 0.0;
  double shm_delta_large = 0.0;
  for (const auto& [width, height] : sizes) {
    OverheadRig native(DataPath::kNative);
    OverheadRig grpc(DataPath::kGrpc);
    OverheadRig shm(DataPath::kShm);
    const double native_ms = sobel_rtt_ms(native, width, height, 4);
    const double grpc_ms = sobel_rtt_ms(grpc, width, height, 4);
    const double shm_ms = sobel_rtt_ms(shm, width, height, 4);
    check_no_stall_fallbacks(grpc);
    check_no_stall_fallbacks(shm);
    if (width == 10) native_small = native_ms;
    if (width == 1920) {
      native_large = native_ms;
      shm_delta_large = shm_ms - native_ms;
    }
    const std::uint64_t rw_bytes =
        2ULL * width * height * sizeof(std::uint32_t);
    std::printf("%4zux%-5zu | %10llu | %12.3f | %16.3f | %18.3f | %6.2f ms\n",
                width, height,
                static_cast<unsigned long long>(rw_bytes), native_ms, grpc_ms,
                shm_ms, shm_ms - native_ms);
  }

  std::printf("\nShape checks vs paper:\n");
  std::printf("  Native 10x10        : %.2f ms (paper: 0.27 ms)\n",
              native_small);
  std::printf("  Native 1920x1080    : %.2f ms (paper: 14.53 ms)\n",
              native_large);
  std::printf("  shm delta at FHD    : %.2f ms (paper: ~2 ms constant)\n",
              shm_delta_large);
  return 0;
}
