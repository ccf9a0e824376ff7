// Ablation: reconfiguration and live migration (paper §III-C).
//
// Part 1 sweeps modeled full-device reconfiguration time against bitstream
// size. Part 2 reproduces the Registry's migration flow: three boards all
// serving Sobel tenants, then an MM function arrives — Algorithm 1 must pick
// a redistributable board, migrate its tenants away (create-before-delete)
// and flag the board for the MM bitstream.
#include <cstdio>

#include "experiment.h"

int main() {
  using namespace bf;
  using namespace bf::bench;

  std::printf("Part 1: reconfiguration time vs bitstream size\n");
  std::printf("%-24s | %10s | %14s\n", "bitstream", "size", "reconfig (ms)");
  std::printf("%s\n", std::string(56, '-').c_str());
  for (const sim::Bitstream& bitstream :
       sim::BitstreamLibrary::standard().all()) {
    std::printf("%-24s | %10s | %14.1f\n", bitstream.id.c_str(),
                human_size(bitstream.size_bytes).c_str(),
                bitstream.reconfiguration_time().ms());
  }

  std::printf("\nPart 2: live migration when a new accelerator arrives\n");
  testbed::Testbed bed;
  auto sobel = [] { return std::make_unique<workloads::SobelWorkload>(); };
  auto mm = [] { return std::make_unique<workloads::MatMulWorkload>(); };

  // Fill all three boards with Sobel tenants (two waves so each board has
  // at least one tenant and each board carries the sobel bitstream).
  for (int i = 1; i <= 6; ++i) {
    BF_CHECK(
        bed.deploy_blastfunction("sobel-" + std::to_string(i), sobel).ok());
  }
  // Warm every tenant so the boards are actually programmed.
  for (int i = 1; i <= 6; ++i) {
    auto instance = bed.gateway().instance("sobel-" + std::to_string(i));
    BF_CHECK(instance != nullptr);
    BF_CHECK(instance->invoke().ok());
  }
  std::printf("  before: pods=%zu, assignments=%zu\n",
              bed.cluster().pod_count(), bed.registry().assignment_count());
  for (const char* node : testbed::Testbed::kNodeNames) {
    auto bitstream = bed.board(node).bitstream();
    std::printf("    node %s: accelerator=%s tenants=%zu\n", node,
                bitstream ? bitstream->accelerator.c_str() : "(none)",
                bed.registry().instances_on_device(bed.board(node).id())
                    .size());
  }

  // The MM function arrives: some board must be drained and reprogrammed.
  BF_CHECK(bed.deploy_blastfunction("mm-1", mm).ok());
  auto mm_instance = bed.gateway().instance("mm-1");
  BF_CHECK(mm_instance != nullptr);
  BF_CHECK(mm_instance->invoke().ok());  // triggers the actual programming

  std::printf("  after MM deployment:\n");
  std::size_t migrated = 0;
  for (const cluster::Pod& pod : bed.cluster().list_pods()) {
    if (cluster::migration_generation(pod.spec.name) > 1) ++migrated;
  }
  for (const char* node : testbed::Testbed::kNodeNames) {
    auto bitstream = bed.board(node).bitstream();
    std::printf(
        "    node %s: accelerator=%s tenants=%zu reconfigurations=%llu\n",
        node, bitstream ? bitstream->accelerator.c_str() : "(none)",
        bed.registry().instances_on_device(bed.board(node).id()).size(),
        static_cast<unsigned long long>(
            bed.board(node).reconfiguration_count()));
  }
  std::printf("  migrated pods (create-before-delete replacements): %zu\n",
              migrated);
  auto mm_device = bed.registry().device_of_instance("mm-1-0");
  std::printf("  mm-1 allocated to: %s\n",
              mm_device ? mm_device->c_str() : "(none)");
  check_no_stall_fallbacks(bed);
  return 0;
}
