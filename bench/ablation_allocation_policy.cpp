// Ablation: Registry allocation policy (paper Algorithm 1, §III-C).
//
// The paper sorts candidate devices "by metrics and by accelerator
// compatibility", with the metrics priority "chosen depending on the system
// and applications SLA". This ablation runs the Table II medium-load Sobel
// scenario under three policies and shows why least-loaded-first spreading
// is the right default:
//   spread  — ascending (utilization, connected)   [the paper's choice]
//   pack    — descending: pile tenants on one board until the filter trips
//   connfirst — ascending (connected, utilization)
#include <cstdio>
#include <map>

#include "experiment.h"

namespace bf::bench {
namespace {

struct PolicyOutcome {
  std::string name;
  double latency_ms = 0.0;
  double processed = 0.0;
  double target = 0.0;
  std::map<std::string, int> tenants_per_node;
};

PolicyOutcome run_policy(const std::string& name,
                         const registry::AllocationPolicy& policy) {
  testbed::TestbedOptions options;
  options.policy = policy;
  testbed::Testbed bed(options);
  auto factory = [] { return std::make_unique<workloads::SobelWorkload>(); };
  const LoadConfig load = sobel_configs()[1];  // medium
  for (std::size_t i = 0; i < load.rates.size(); ++i) {
    BF_CHECK(bed.deploy_blastfunction("sobel-" + std::to_string(i + 1),
                                      factory)
                 .ok());
  }
  PolicyOutcome out;
  out.name = name;
  for (std::size_t i = 0; i < load.rates.size(); ++i) {
    auto instance =
        bed.gateway().instance("sobel-" + std::to_string(i + 1));
    BF_CHECK(instance != nullptr);
    ++out.tenants_per_node[instance->pod().spec.node];
  }
  std::vector<loadgen::DriveSpec> specs;
  for (std::size_t i = 0; i < load.rates.size(); ++i) {
    loadgen::DriveSpec spec;
    spec.function = "sobel-" + std::to_string(i + 1);
    spec.target_rps = load.rates[i];
    spec.warmup = vt::Duration::seconds(4);
    spec.duration = vt::Duration::seconds(15);
    specs.push_back(spec);
  }
  auto results = loadgen::drive_all(bed.gateway(), specs);
  double weighted = 0.0;
  double count = 0.0;
  for (const auto& r : results) {
    out.processed += r.processed_rps;
    out.target += r.target_rps;
    weighted += (r.latency_ms.empty() ? 0.0 : r.latency_ms.mean()) *
                static_cast<double>(r.ok);
    count += static_cast<double>(r.ok);
  }
  out.latency_ms = count > 0 ? weighted / count : 0.0;

  // Registry invariants must hold regardless of policy: every assignment
  // names a running pod on a registered device, and the per-device view
  // agrees with the assignment map (see docs/ALLOCATION.md).
  const auto assignments = bed.registry().assignments();
  BF_CHECK(assignments.size() == bed.registry().assignment_count());
  std::size_t indexed = 0;
  for (const registry::DeviceRecord& record : bed.registry().devices()) {
    for (const std::string& instance :
         bed.registry().instances_on_device(record.id)) {
      ++indexed;
      BF_CHECK(assignments.contains(instance) &&
               assignments.at(instance) == record.id);
    }
  }
  BF_CHECK(indexed == assignments.size());
  for (const auto& [instance, device] : assignments) {
    auto pod = bed.cluster().get_pod(instance);
    BF_CHECK(pod.has_value() &&
             pod->phase == cluster::PodPhase::kRunning);
    (void)device;
  }
  check_no_stall_fallbacks(bed);
  return out;
}

}  // namespace
}  // namespace bf::bench

int main() {
  using namespace bf;
  using namespace bf::bench;

  registry::AllocationPolicy spread;  // defaults

  registry::AllocationPolicy pack = spread;
  pack.pack_tenants = true;

  registry::AllocationPolicy connfirst = spread;
  connfirst.metrics_order = {registry::MetricKey::kConnectedInstances,
                             registry::MetricKey::kUtilization};

  std::printf("Ablation: allocation policy (Sobel, medium load, 5 tenants)\n");
  std::printf("%-10s | %-14s | %10s | %16s\n", "policy", "tenants A/B/C",
              "latency", "processed/target");
  std::printf("%s\n", std::string(62, '-').c_str());
  for (const auto& [name, policy] :
       std::vector<std::pair<std::string, registry::AllocationPolicy>>{
           {"spread", spread}, {"connfirst", connfirst}, {"pack", pack}}) {
    PolicyOutcome outcome = run_policy(name, policy);
    std::printf("%-10s | %5d/%d/%d      | %7.2f ms | %6.1f / %5.0f rq/s\n",
                outcome.name.c_str(), outcome.tenants_per_node["A"],
                outcome.tenants_per_node["B"], outcome.tenants_per_node["C"],
                outcome.latency_ms, outcome.processed, outcome.target);
  }
  std::printf("\nPacking concentrates tenants on one board: higher queueing "
              "latency and lost throughput versus the paper's spread "
              "policy.\n");
  return 0;
}
