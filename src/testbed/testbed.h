// Turnkey reproduction of the paper's experimental platform (§IV): three
// nodes — master A (Xeon W3530, PCIe gen2) and workers B, C (i7-6700, PCIe
// gen3) — each hosting one Terasic DE5a-Net board with its Device Manager,
// a simulated Kubernetes cluster, the Accelerators Registry, an OpenFaaS
// gateway and per-node shared-memory namespaces.
//
// Functions deploy in one of two ways:
//  * deploy_blastfunction: registered with the Registry, allocated by
//    Algorithm 1 (patched env, forced host allocation), bound to the Remote
//    OpenCL Library with the shared-memory data plane;
//  * deploy_native: pinned to a node, bound directly to that node's board
//    via the Native runtime (the paper's baseline), optionally
//    fork-per-request (classic watchdog).
#pragma once

#include <array>
#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "common/call_options.h"
#include "devmgr/device_manager.h"
#include "faas/gateway.h"
#include "registry/registry.h"
#include "shm/namespace.h"
#include "sim/board.h"
#include "workloads/workload.h"

namespace bf::trace {
class TraceBuilder;
}  // namespace bf::trace

namespace bf::testbed {

struct TestbedOptions {
  // Kernels compute real results (slow; tests/examples) or timing only
  // (load experiments).
  bool functional_boards = false;
  // Data plane for BlastFunction functions: shared memory (paper's load
  // experiments) or pure gRPC.
  bool use_shared_memory = true;
  // Partial-reconfiguration regions per board (1 = the paper's evaluated
  // full-device time sharing; >1 enables the space-sharing extension).
  unsigned pr_regions = 1;
  registry::AllocationPolicy policy;
  // Gateway graceful degradation (retry, circuit breaker). Defaults keep
  // modeled timelines identical to a policy-free gateway.
  faas::GatewayPolicy gateway;
  // Failure handling for every remote control-plane channel the resolver
  // hands out (deadline, retry-with-backoff). Defaults are zero-cost.
  CallOptions call_options;
  // Device Managers' conservative-gate stall grace (docs/VIRTUAL_TIME.md);
  // recovery tests lower it so wedged producers fall back quickly.
  std::chrono::milliseconds gate_stall_grace{1000};
  // Central-queue scheduling for every Device Manager (docs/SCHEDULING.md).
  // The default max_batch of 1 is the paper's modeled FIFO.
  devmgr::SchedulerConfig scheduler;
  // When set, installed as the process-wide request-trace sink for the
  // testbed's lifetime (docs/TRACING.md): every request minted through the
  // gateway collects parent-linked spans here. Must outlive the Testbed.
  // nullptr (default) keeps tracing disabled and strictly zero-cost.
  trace::TraceBuilder* trace = nullptr;
};

class Testbed {
 public:
  explicit Testbed(TestbedOptions options = {});
  ~Testbed();

  Testbed(const Testbed&) = delete;
  Testbed& operator=(const Testbed&) = delete;

  static constexpr std::size_t kNodeCount = 3;  // initial nodes
  static constexpr std::array<const char*, kNodeCount> kNodeNames = {
      "A", "B", "C"};

  // All current node names (initial three plus provisioned ones).
  [[nodiscard]] std::vector<std::string> node_names() const;

  [[nodiscard]] cluster::Cluster& cluster() { return *cluster_; }
  [[nodiscard]] registry::Registry& registry() { return *registry_; }
  [[nodiscard]] faas::Gateway& gateway() { return *gateway_; }
  [[nodiscard]] sim::Board& board(const std::string& node);
  [[nodiscard]] devmgr::DeviceManager& manager(const std::string& node);
  [[nodiscard]] shm::Namespace& node_shm(const std::string& node);

  // Provisions a new worker node with a fresh board + Device Manager and
  // registers it with the cluster and Registry (the AWS-F1 autoscaling
  // stand-in, paper §V future work). Returns the new device id.
  Result<std::string> provision_node(const std::string& name);
  // Tears a node down (must have no pods / assigned instances).
  Status decommission_node(const std::string& name);

  // Deploys a BlastFunction function (registered + allocated by the
  // Registry).
  Status deploy_blastfunction(const std::string& name,
                              workloads::WorkloadFactory factory,
                              unsigned replicas = 1);

  // Deploys a native-baseline function pinned to `node`, using that node's
  // board directly.
  Status deploy_native(const std::string& name,
                       workloads::WorkloadFactory factory,
                       const std::string& node,
                       faas::ExecutionMode mode =
                           faas::ExecutionMode::kForkPerRequest);

  // Aggregate FPGA time utilization over [from, to] summed across boards,
  // as a percentage with a 300% maximum (paper Tables II-IV).
  [[nodiscard]] double aggregate_utilization_pct(vt::Time from,
                                                 vt::Time to) const;
  [[nodiscard]] double node_utilization_pct(const std::string& node,
                                            vt::Time from, vt::Time to) const;

  // Latest modeled time across boards (used as the Registry's clock).
  [[nodiscard]] vt::Time clock() const;

 private:
  std::size_t node_index(const std::string& node) const;

  // Builds the per-node stack (shm namespace, board, manager). Requires the
  // slot vectors to be appended in lockstep.
  void add_node_stack(const std::string& name,
                      const sim::NodeProfile& profile);

  TestbedOptions options_;
  std::vector<std::string> node_names_;
  std::vector<sim::NodeProfile> profiles_;
  std::vector<std::unique_ptr<shm::Namespace>> shm_;
  std::vector<std::unique_ptr<sim::Board>> boards_;
  std::vector<std::unique_ptr<devmgr::DeviceManager>> managers_;
  std::unique_ptr<cluster::Cluster> cluster_;
  std::unique_ptr<registry::Registry> registry_;
  std::unique_ptr<faas::Gateway> gateway_;
};

}  // namespace bf::testbed
