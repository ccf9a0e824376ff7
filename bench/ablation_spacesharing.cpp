// Ablation: space-sharing (paper §V future work) vs the evaluated
// time-sharing-only design.
//
// Scenario: a mixed fleet — 3 Sobel functions and 2 MM functions — on the
// three-board cluster under medium load. In classic mode the Registry must
// give MM its own boards (different accelerators cannot time-share a
// full-device image); with 2 PR regions per board, Sobel and MM co-reside
// and the mixed fleet spreads freely.
#include <cstdio>

#include "experiment.h"

namespace bf::bench {
namespace {

struct Outcome {
  std::string label;
  double latency_ms = 0.0;
  double processed = 0.0;
  double target = 0.0;
  std::size_t migrations = 0;
  std::map<std::string, std::size_t> tenants_per_board;
};

Outcome run_mixed(unsigned pr_regions) {
  testbed::TestbedOptions options;
  options.pr_regions = pr_regions;
  testbed::Testbed bed(options);

  auto sobel = [] { return std::make_unique<workloads::SobelWorkload>(); };
  auto mm = [] { return std::make_unique<workloads::MatMulWorkload>(); };

  // Phase 1: a Sobel tenant on every board, warmed so the boards actually
  // carry the sobel image when MM arrives.
  const double sobel_rates[3] = {40, 35, 30};
  for (int i = 1; i <= 3; ++i) {
    BF_CHECK(bed.deploy_blastfunction("sobel-" + std::to_string(i), sobel)
                 .ok());
  }
  for (int i = 1; i <= 3; ++i) {
    auto instance = bed.gateway().instance("sobel-" + std::to_string(i));
    BF_CHECK(instance->invoke().ok());
  }

  // Phase 2: two MM functions arrive. Classic mode must drain a board
  // (migrating its Sobel tenant); PR mode slots MM into free regions.
  BF_CHECK(bed.deploy_blastfunction("mm-1", mm).ok());
  BF_CHECK(bed.deploy_blastfunction("mm-2", mm).ok());

  Outcome out;
  out.label = pr_regions == 1 ? "time-sharing only"
                              : std::to_string(pr_regions) + " PR regions";
  std::vector<std::string> live_names;
  for (const cluster::Pod& pod : bed.cluster().list_pods()) {
    if (cluster::migration_generation(pod.spec.name) > 1) ++out.migrations;
    live_names.push_back(pod.spec.name);
  }
  for (const std::string& pod : live_names) {
    auto device = bed.registry().device_of_instance(pod);
    if (device) ++out.tenants_per_board[*device];
  }

  std::vector<loadgen::DriveSpec> specs;
  for (const cluster::Pod& pod : bed.cluster().list_pods()) {
    loadgen::DriveSpec spec;
    spec.function = pod.spec.function;
    if (spec.function.starts_with("sobel")) {
      spec.target_rps = sobel_rates[spec.function.back() - '1'];
    } else {
      spec.target_rps = spec.function == "mm-1" ? 40 : 30;
    }
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
  check_no_stall_fallbacks(bed);
  return out;
}

}  // namespace
}  // namespace bf::bench

int main() {
  using namespace bf::bench;
  std::printf("Ablation: space-sharing vs time-sharing\n"
              "(3 warmed Sobel tenants, then 2 MM functions arrive)\n");
  std::printf("%-18s | %10s | %17s | %10s | %s\n", "mode", "latency",
              "processed/target", "migrations", "tenants per board");
  std::printf("%s\n", std::string(90, '-').c_str());
  for (unsigned regions : {1u, 2u}) {
    Outcome out = run_mixed(regions);
    std::string spread;
    for (const auto& [board, count] : out.tenants_per_board) {
      spread += board + ":" + std::to_string(count) + " ";
    }
    std::printf("%-18s | %7.2f ms | %6.1f / %6.0f  | %10zu | %s\n",
                out.label.c_str(), out.latency_ms, out.processed, out.target,
                out.migrations, spread.c_str());
  }
  std::printf("\nWith PR regions, Sobel and MM co-reside: the mixed fleet "
              "spreads across all boards without migrations, and kernels of "
              "different regions overlap in time.\n");
  return 0;
}
