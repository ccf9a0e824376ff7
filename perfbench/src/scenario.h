// Workloads of the end-to-end benchmark and the round that runs one of them:
// a fresh 3-board Testbed, deploy + Algorithm-1 allocation + sequential cold
// starts (set-up), then one closed-loop load thread per tenant over a fixed
// modeled horizon (drive). See README.md for why each workload exists.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "probes.h"
#include "vt/time.h"

namespace perfbench {

enum class App { kSobel, kAlexNet };

struct WorkloadSpec {
  std::string name;
  App app = App::kSobel;
  std::vector<double> rates;  // paper rq/s, one tenant each
  bool shared_memory = true;  // shm data plane, else gRPC
  bool functional = false;    // real kernels; outputs checked
  bf::vt::Duration warmup;    // modeled; sends before it are not measured
  bf::vt::Duration duration;  // modeled measurement window
};

[[nodiscard]] const std::vector<WorkloadSpec>& workload_specs();
[[nodiscard]] const WorkloadSpec* find_workload(std::string_view name);

struct RoundOptions {
  // Stop after set-up: no drive, only setup_s is filled in.
  bool setup_only = false;
  // The benchmark's outside-in probes: decorated workload/context/queues,
  // timed deploy/warm/invoke and sampled devmgr health. They must leave
  // every modeled number unchanged.
  bool probes = false;
  // The program's own request tracer (TestbedOptions.trace), for the
  // devmgr queue-wait/execute spans. It propagates trace ids on the wire,
  // which adds bytes and so moves modeled time: never mix its round with
  // the others.
  bool tracer = false;
};

// Collected only by instrumented rounds.
struct TracedRound {
  std::vector<std::vector<Span>> spans;  // SpanLog, per thread
  std::vector<double> warm_host_s;       // per tenant
  double warm_cpu_s = 0.0;               // process CPU over all warms
  double deploy_host_ms = 0.0;           // all deploys
  std::size_t queue_depth_max = 0;
  std::vector<double> queue_wait_ms;     // devmgr "queue-wait" spans (tracer)
  std::vector<double> execute_ms;        // devmgr "execute" spans (tracer)
};

struct RoundResult {
  // Host clock.
  double setup_s = 0.0;
  double drive_wall_s = 0.0;
  double drive_cpu_s = 0.0;
  std::vector<double> host_req_ms;  // measured requests
  // Modeled clock.
  std::vector<double> modeled_ms;  // measured requests
  double processed_rps = 0.0;      // summed over tenants
  double target_rps = 0.0;
  double utilization_pct = 0.0;    // all boards, measurement window
  std::string modeled_digest;      // every modeled number of the round
  // Requests, whole drive.
  std::uint64_t sent = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  // Counter deltas over the drive (devmgr / sim / common).
  std::uint64_t tasks = 0;
  std::uint64_t ops = 0;
  std::uint64_t tasks_cancelled = 0;
  std::uint64_t kernel_launches = 0;
  std::uint64_t arena_hits = 0;
  std::uint64_t arena_misses = 0;
  std::uint64_t bytes_deep_copies = 0;
  std::uint64_t heap_allocs = 0;
  std::uint64_t reconfigurations = 0;  // whole round, set-up included
  // What the workload's host code implies per request.
  std::uint64_t expected_tasks_per_req = 0;
  std::uint64_t expected_ops_per_req = 0;
  std::uint64_t request_bytes = 0;  // in + out
  // Functional output checks (sobel-grpc).
  std::uint64_t outputs_checked = 0;
  std::uint64_t outputs_wrong = 0;

  TracedRound trace;
};

// Runs one full round. Identical (spec, seed) give identical modeled
// results unless the tracer is on.
[[nodiscard]] RoundResult run_round(const WorkloadSpec& spec,
                                    std::uint64_t seed,
                                    RoundOptions options = {});

// Host milliseconds of one direct sim::SobelKernel::execute on the
// workload's full-HD frame (median of `reps`); checks the output.
[[nodiscard]] double sobel_execute_host_ms(int reps);

}  // namespace perfbench
