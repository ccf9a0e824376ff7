// Ablation: failure handling under an injected transient-fault storm.
//
// The load experiments assume a healthy fabric; this ablation asks what the
// resilience layer (docs/RESILIENCE.md) buys when it is not. Three Sobel
// tenants run a closed loop of requests *through the gateway* (the layer
// whose policy is being ablated) with two transient fault sites armed — shm
// stage denials and mid-task aborts, both safe without deadlines — under
// three configurations:
//
//   none            default zero-cost options: every fault surfaces to the
//                   client as a failed request;
//   deadline        per-call deadlines only: failures are still surfaced,
//                   but a lost frame can no longer wedge a caller;
//   deadline+retry  the full stack: gateway-level bounded retry on top of
//                   per-channel deadlines absorbs transient faults.
//
// The headline number is the success rate: retries convert failed requests
// back into successes at a modest latency premium (the retried attempts and
// backoff are charged to the tenants' virtual clocks — nothing is free).
#include <cstdio>
#include <string>
#include <vector>

#include "fault/injector.h"
#include "experiment.h"

namespace bf::bench {
namespace {

constexpr int kTenants = 3;
constexpr int kRequestsPerTenant = 300;

struct Config {
  const char* label;
  bool deadline = false;
  unsigned invoke_attempts = 1;
};

struct RecoveryResult {
  std::uint64_t ok = 0;
  std::uint64_t errors = 0;
  double mean_latency_ms = 0.0;
};

RecoveryResult run_with(const Config& config) {
  // Same seed for every configuration: the fault pattern is identical, only
  // the handling differs.
  fault::ScopedInjection inject(/*seed=*/1234);
  inject.site(fault::site::kShmStageFail, {.probability = 0.03});
  inject.site(fault::site::kDevmgrTaskAbort, {.probability = 0.01});

  testbed::TestbedOptions options;
  if (config.deadline) {
    options.call_options.timeout = vt::Duration::seconds(10);
  }
  options.gateway.max_invoke_attempts = config.invoke_attempts;
  testbed::Testbed bed(options);

  auto factory = [] { return std::make_unique<workloads::SobelWorkload>(); };
  std::vector<std::string> functions;
  for (int i = 0; i < kTenants; ++i) {
    functions.push_back("sobel-" + std::to_string(i + 1));
    BF_CHECK(bed.deploy_blastfunction(functions.back(), factory).ok());
  }

  RecoveryResult out;
  double latency_sum_ms = 0.0;
  for (const auto& function : functions) {
    // Warm request (cold start excluded, as in the load experiments).
    (void)bed.gateway().invoke(function);
    for (int i = 0; i < kRequestsPerTenant; ++i) {
      auto invoked = bed.gateway().invoke(function);
      if (invoked.ok()) {
        ++out.ok;
        latency_sum_ms += invoked.value().latency.ms();
      } else {
        ++out.errors;
      }
    }
  }
  check_no_stall_fallbacks(bed);
  bed.gateway().shutdown_instances();
  out.mean_latency_ms =
      out.ok > 0 ? latency_sum_ms / static_cast<double>(out.ok) : 0.0;
  return out;
}

}  // namespace
}  // namespace bf::bench

int main() {
  using namespace bf::bench;
  std::printf("Ablation: failure handling under a transient-fault storm\n");
  std::printf("(%d Sobel tenants x %d gateway requests, shm stage denials "
              "3%% + mid-task aborts 1%%, same fault seed per row)\n\n",
              kTenants, kRequestsPerTenant);
  std::printf("%-16s | %9s | %7s | %7s | %9s\n", "handling", "latency", "ok",
              "errors", "success");
  std::printf("%s\n", std::string(60, '-').c_str());
  const Config configs[] = {
      {"none", /*deadline=*/false, /*invoke_attempts=*/1},
      {"deadline", /*deadline=*/true, /*invoke_attempts=*/1},
      {"deadline+retry", /*deadline=*/true, /*invoke_attempts=*/3},
  };
  for (const Config& config : configs) {
    RecoveryResult out = run_with(config);
    const double total = static_cast<double>(out.ok + out.errors);
    std::printf("%-16s | %6.2f ms | %7llu | %7llu | %8.2f%%\n", config.label,
                out.mean_latency_ms, static_cast<unsigned long long>(out.ok),
                static_cast<unsigned long long>(out.errors),
                total > 0 ? 100.0 * static_cast<double>(out.ok) / total : 0.0);
  }
  std::printf("\nBounded gateway retries absorb transient faults that the "
              "bare stack surfaces to clients; the latency premium is the "
              "modeled backoff plus the retried attempts themselves.\n");
  return 0;
}
