// Figure 4(c): Matrix-Multiply round-trip latency versus matrix size
// (16 .. 4096), Native / BlastFunction (gRPC) / BlastFunction shm.
//
// Paper shape: compute-bound — both remote paths start at the ~2 ms control
// floor and converge to Native as N grows (Native 0.45 ms at 16, 3.571 s at
// 4096; shm ends only ~17 ms above Native, a 0.27% relative overhead).
#include <cstdio>
#include <vector>

#include "experiment.h"

namespace bf::bench {
namespace {

double mm_rtt_ms(OverheadRig& rig, std::size_t n, int reps) {
  ocl::Session session("fig4c");
  auto devices = rig.runtime().devices();
  BF_CHECK(devices.ok());
  auto context = rig.runtime().create_context(devices.value()[0].id, session);
  BF_CHECK(context.ok());
  workloads::MatMulWorkload workload(n);
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

  std::printf("Figure 4(c): MM kernel latency vs matrix size\n");
  std::printf("%-6s | %12s | %16s | %18s | %9s | %9s\n", "N", "Native (ms)",
              "BlastFunction(ms)", "BlastFunction shm", "shm - nat",
              "shm ovh%");
  std::printf("%s\n", std::string(86, '-').c_str());

  const std::size_t max_n = fig_smoke() ? 128 : 4096;
  double native_small = 0.0;
  double native_large = 0.0;
  double grpc_large = 0.0;
  double shm_large = 0.0;
  for (std::size_t n = 16; n <= max_n; n *= 2) {
    OverheadRig native(DataPath::kNative);
    OverheadRig grpc(DataPath::kGrpc);
    OverheadRig shm(DataPath::kShm);
    const int reps = n >= 2048 ? 2 : 4;
    const double native_ms = mm_rtt_ms(native, n, reps);
    const double grpc_ms = mm_rtt_ms(grpc, n, reps);
    const double shm_ms = mm_rtt_ms(shm, n, reps);
    check_no_stall_fallbacks(grpc);
    check_no_stall_fallbacks(shm);
    if (n == 16) native_small = native_ms;
    if (n == 4096) {
      native_large = native_ms;
      grpc_large = grpc_ms;
      shm_large = shm_ms;
    }
    std::printf("%-6zu | %12.3f | %16.3f | %18.3f | %6.2f ms | %8.2f%%\n", n,
                native_ms, grpc_ms, shm_ms, shm_ms - native_ms,
                100.0 * (shm_ms - native_ms) / native_ms);
  }

  std::printf("\nShape checks vs paper:\n");
  std::printf("  Native N=16        : %.2f ms   (paper: 0.45 ms)\n",
              native_small);
  std::printf("  Native N=4096      : %.0f ms   (paper: 3571 ms)\n",
              native_large);
  std::printf("  BlastFunction 4096 : %.0f ms   (paper: 3675 ms)\n",
              grpc_large);
  std::printf("  shm 4096           : %.0f ms   (paper: 3588 ms, +17 ms)\n",
              shm_large);
  return 0;
}
