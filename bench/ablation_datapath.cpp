// Ablation: data-path design (paper §III-B / Figure 4).
//
// The paper's argument for the shared-memory data plane is that gRPC costs
// four data copies plus protobuf serialization where shm needs one copy.
// This ablation sweeps the number of extra copies in the gRPC-analogue
// transport and compares against the shm plane, quantifying how much each
// copy contributes to the Sobel request RTT.
#include <cstdio>
#include <memory>

#include "experiment.h"

namespace bf::bench {
namespace {

double sobel_rtt_with_copies(unsigned extra_copies) {
  sim::BoardConfig bc;
  bc.id = "fpga-b";
  bc.node = "B";
  bc.host = sim::make_node_b();
  bc.functional = false;
  sim::Board board(bc);
  shm::Namespace ns;

  devmgr::DeviceManagerConfig mc;
  mc.id = "devmgr-b";
  mc.allow_shared_memory = false;
  devmgr::DeviceManager manager(mc, &board, nullptr);

  remote::ManagerAddress address;
  address.endpoint = &manager.endpoint();
  // Custom transport: standard local link, variable copy count.
  address.transport = net::TransportCost(
      bc.host.serialization,
      sim::LinkModel(vt::Duration::nanos(bc.host.grpc_control_rtt.ns() / 4),
                     8.0 * 1024 * 1024 * 1024),
      bc.host.memcpy_model, extra_copies);
  address.prefer_shared_memory = false;
  remote::RemoteRuntime runtime({address});

  ocl::Session session("ablation");
  auto devices = runtime.devices();
  BF_CHECK(devices.ok());
  auto context = runtime.create_context(devices.value()[0].id, session);
  BF_CHECK(context.ok());
  workloads::SobelWorkload workload;  // 1920x1080
  BF_CHECK(workload.setup(*context.value()).ok());
  double total = 0.0;
  constexpr int kReps = 4;
  for (int i = 0; i <= kReps; ++i) {
    const vt::Time before = session.now();
    BF_CHECK(workload.handle_request(*context.value()).ok());
    if (i > 0) total += (session.now() - before).ms();
  }
  workload.teardown();
  check_no_stall_fallbacks(manager);
  return total / kReps;
}

double sobel_rtt_shm() {
  OverheadRig rig(DataPath::kShm);
  ocl::Session session("ablation");
  auto devices = rig.runtime().devices();
  BF_CHECK(devices.ok());
  auto context = rig.runtime().create_context(devices.value()[0].id, session);
  BF_CHECK(context.ok());
  workloads::SobelWorkload workload;
  BF_CHECK(workload.setup(*context.value()).ok());
  double total = 0.0;
  constexpr int kReps = 4;
  for (int i = 0; i <= kReps; ++i) {
    const vt::Time before = session.now();
    BF_CHECK(workload.handle_request(*context.value()).ok());
    if (i > 0) total += (session.now() - before).ms();
  }
  workload.teardown();
  check_no_stall_fallbacks(rig);
  return total / kReps;
}

}  // namespace
}  // namespace bf::bench

int main() {
  using namespace bf::bench;

  std::printf("Ablation: Sobel (1920x1080) request RTT vs data-path copies\n");
  std::printf("%-28s | %10s\n", "data path", "RTT (ms)");
  std::printf("%s\n", std::string(43, '-').c_str());

  double with_three = 0.0;
  double with_zero = 0.0;
  for (unsigned copies = 0; copies <= 4; ++copies) {
    const double rtt = sobel_rtt_with_copies(copies);
    if (copies == 0) with_zero = rtt;
    if (copies == 3) with_three = rtt;
    std::printf("gRPC, %u extra cop%s         | %10.3f\n", copies,
                copies == 1 ? "y " : "ies", rtt);
  }
  const double shm = sobel_rtt_shm();
  std::printf("%-28s | %10.3f\n", "shared memory (1 copy)", shm);

  std::printf("\nEach extra copy adds ~%.2f ms at this payload; the shm "
              "plane saves %.2f ms vs the deployed gRPC path (3 copies).\n",
              (with_three - with_zero) / 3.0, with_three - shm);
  return 0;
}
