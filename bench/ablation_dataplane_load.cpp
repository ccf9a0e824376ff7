// Ablation: data plane under multi-tenant load.
//
// The paper's load experiments (Tables II-IV) all use the shared-memory
// plane; Figure 4 compares the planes only one call at a time. This
// ablation runs the Table II medium-load Sobel scenario on both planes,
// showing that the gRPC path's extra copies do not just add latency — they
// consume board-adjacent host time that inflates every tenant's response
// under concurrency.
#include <cstdio>

#include "experiment.h"

namespace bf::bench {
namespace {

ScenarioResult run_with_plane(bool use_shared_memory) {
  testbed::TestbedOptions options;
  options.use_shared_memory = use_shared_memory;
  testbed::Testbed bed(options);
  auto factory = [] { return std::make_unique<workloads::SobelWorkload>(); };
  const LoadConfig load = sobel_configs()[1];  // medium
  for (std::size_t i = 0; i < load.rates.size(); ++i) {
    BF_CHECK(bed.deploy_blastfunction("sobel-" + std::to_string(i + 1),
                                      factory)
                 .ok());
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

  ScenarioResult out;
  out.scenario = use_shared_memory ? "shared memory" : "gRPC data plane";
  out.configuration = load.name;
  double weighted = 0.0;
  double count = 0.0;
  for (const auto& r : results) {
    weighted += (r.latency_ms.empty() ? 0.0 : r.latency_ms.mean()) *
                static_cast<double>(r.ok);
    count += static_cast<double>(r.ok);
    out.aggregate_processed_rps += r.processed_rps;
    out.aggregate_target_rps += r.target_rps;
  }
  out.aggregate_latency_ms = count > 0 ? weighted / count : 0.0;
  const vt::Time from = vt::Time::seconds(4);
  const vt::Time to = from + vt::Duration::seconds(15);
  out.aggregate_utilization_pct = bed.aggregate_utilization_pct(from, to);
  check_no_stall_fallbacks(bed);
  return out;
}

}  // namespace
}  // namespace bf::bench

int main() {
  using namespace bf::bench;
  std::printf("Ablation: data plane under Table II medium load "
              "(5 Sobel tenants)\n");
  std::printf("%-16s | %9s | %11s | %16s\n", "plane", "latency",
              "utilization", "processed/target");
  std::printf("%s\n", std::string(62, '-').c_str());
  for (bool shm : {true, false}) {
    ScenarioResult out = run_with_plane(shm);
    std::printf("%-16s | %6.2f ms | %9.1f%% | %6.1f / %5.0f\n",
                out.scenario.c_str(), out.aggregate_latency_ms,
                out.aggregate_utilization_pct, out.aggregate_processed_rps,
                out.aggregate_target_rps);
  }
  std::printf("\nThe shared-memory plane is why the paper's load results "
              "hold: with inline-bytes gRPC every 8 MB frame pays "
              "serialization plus three extra copies per direction.\n");
  return 0;
}
