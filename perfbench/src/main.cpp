// End-to-end benchmark of the BlastFunction simulation stack.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--spans <file>]
//
// --trace 0 runs untraced rounds (at least two, and more while another
// fits in --seconds of host time) and prints the end-to-end metrics. --trace 1 runs an
// untraced round, a round with the outside-in probes and a round with the
// program's own request tracer, and prints the per-layer metrics. Either
// way the last stdout line is one JSON object: correct, attempted, failed,
// metrics. Host-clock and modeled-clock numbers are kept apart throughout;
// see README.md.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "probes.h"
#include "scenario.h"

namespace perfbench {
namespace {

// Two drives with one seed are needed for the determinism check. Set-up is
// repeated (without a drive when the drives are done) to a median of at
// least three, and of fifteen where fifteen take under two seconds.
constexpr std::size_t kMinDrives = 2;
constexpr std::size_t kMaxDrives = 30;
constexpr std::size_t kMinSetups = 3;
constexpr std::size_t kCheapSetups = 15;
constexpr double kCheapSetupBudgetS = 2.0;
// The Device Managers' conservative-gate stall grace (TestbedOptions
// default): a call that blocks this long most likely waited it out.
constexpr double kStallGraceS = 1.0;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string spans;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--spans <file>]\nworkloads:",
               why);
  for (const WorkloadSpec& spec : workload_specs()) {
    std::fprintf(stderr, " %s", spec.name.c_str());
  }
  std::fprintf(stderr, "\n");
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args args;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != value.c_str() && *end == '\0';
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || !(args.seconds > 0)) {
        usage("--seconds must be a positive number");
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("--trace must be 0 or 1");
      args.trace = value == "1";
    } else if (flag == "--spans") {
      args.spans = value;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_seed) usage("--seed <unsigned integer> is required");
  if (find_workload(args.workload) == nullptr) usage("unknown --workload");
  return args;
}

// Nearest-rank quantile; 0 for an empty sample.
double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * double(values.size())));
  return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return double(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

class Report {
 public:
  void add(std::string name, double value, std::string unit,
           const std::string& note = "") {
    std::printf("  %-34s %14.6f %-6s %s\n", name.c_str(), value, unit.c_str(),
                note.c_str());
    metrics_.push_back({std::move(name), value, std::move(unit)});
  }

  void fail(const std::string& check) {
    std::printf("  CHECK FAILED: %s\n", check.c_str());
    correct_ = false;
  }
  void expect(bool ok, const std::string& check) {
    if (!ok) fail(check);
  }

  void print_json(std::uint64_t attempted, std::uint64_t failed) const {
    std::string json = "{\"correct\": ";
    json += correct_ ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(attempted);
    json += ", \"failed\": " + std::to_string(failed);
    json += ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      char value[64];
      std::snprintf(value, sizeof(value), "%.17g",
                    std::isfinite(metrics_[i].value) ? metrics_[i].value : 0.0);
      if (i != 0) json += ", ";
      json += "\"" + metrics_[i].name + "\": {\"value\": " + value +
              ", \"unit\": \"" + metrics_[i].unit + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
  }

  [[nodiscard]] bool correct() const { return correct_; }

 private:
  std::vector<Metric> metrics_;
  bool correct_ = true;
};

// Checks every round must pass, traced or not.
void check_round(Report& report, const RoundResult& round, int index) {
  const std::string tag = "round " + std::to_string(index) + ": ";
  report.expect(round.failed == 0,
                tag + std::to_string(round.failed) + " failed requests");
  report.expect(round.tasks == round.completed * round.expected_tasks_per_req,
                tag + "devmgr tasks " + std::to_string(round.tasks) +
                    " != requests x " +
                    std::to_string(round.expected_tasks_per_req));
  report.expect(round.ops == round.completed * round.expected_ops_per_req,
                tag + "devmgr ops " + std::to_string(round.ops) +
                    " != requests x " +
                    std::to_string(round.expected_ops_per_req));
  report.expect(round.outputs_wrong == 0,
                tag + std::to_string(round.outputs_wrong) +
                    " outputs differ from sobel_reference");
  report.expect(round.modeled_ms.size() >= 100,
                tag + "fewer than 100 measured requests");
}

void print_context(const Args& args, int drives) {
  double load[3] = {0, 0, 0};
  if (getloadavg(load, 3) < 0) load[0] = -1;
  std::printf(
      "perfbench workload=%s seed=%llu seconds=%g trace=%d drives=%d "
      "nproc=%ld loadavg_1m=%.2f build=%s\n",
      args.workload.c_str(), static_cast<unsigned long long>(args.seed),
      args.seconds, args.trace ? 1 : 0, drives, sysconf(_SC_NPROCESSORS_ONLN),
      load[0], BF_PERFBENCH_BUILD_TYPE);
}

// ---- --trace 0: end-to-end metrics ------------------------------------------

int run_end_to_end(const Args& args, const WorkloadSpec& spec) {
  const std::int64_t start = steady_ns();
  std::vector<RoundResult> rounds;
  // A round starts only if one as long as the longest so far still ends
  // within --seconds, so a run overshoots by little more than set-ups.
  double longest_s = 0.0;
  while (rounds.size() < kMinDrives ||
         (double(steady_ns() - start) / 1e9 + longest_s <= args.seconds &&
          rounds.size() < kMaxDrives)) {
    const std::int64_t r0 = steady_ns();
    rounds.push_back(run_round(spec, args.seed));
    longest_s = std::max(longest_s, double(steady_ns() - r0) / 1e9);
  }
  std::vector<double> setup_s;
  double setup_total_s = 0.0;
  auto add_setup = [&](double s) {
    setup_s.push_back(s);
    setup_total_s += s;
  };
  for (const RoundResult& r : rounds) add_setup(r.setup_s);
  while (setup_s.size() < kMinSetups ||
         (setup_s.size() < kCheapSetups &&
          setup_total_s < kCheapSetupBudgetS)) {
    add_setup(run_round(spec, args.seed, {.setup_only = true}).setup_s);
  }
  print_context(args, int(rounds.size()));

  Report report;
  std::uint64_t sent = 0, completed = 0, failed = 0;
  std::vector<double> rps, cpu_ms, p50_ms, p90_ms;  // per drive
  std::size_t samples = 0;
  for (std::size_t i = 0; i < rounds.size(); ++i) {
    const RoundResult& r = rounds[i];
    check_round(report, r, int(i));
    report.expect(r.modeled_digest == rounds.front().modeled_digest,
                  "modeled results of round " + std::to_string(i) +
                      " differ from round 0 (same seed)");
    sent += r.sent;
    completed += r.completed;
    failed += r.failed;
    rps.push_back(double(r.completed) / r.drive_wall_s);
    cpu_ms.push_back(1e3 * r.drive_cpu_s / double(r.completed));
    p50_ms.push_back(quantile(r.host_req_ms, 0.50));
    p90_ms.push_back(quantile(r.host_req_ms, 0.90));
    std::printf("  round %zu: setup %.3f s, drive %.3f s wall / %.3f s cpu, "
                "%llu requests, invoke p50 %.3f ms p90 %.3f ms\n",
                i, r.setup_s, r.drive_wall_s, r.drive_cpu_s,
                static_cast<unsigned long long>(r.completed), p50_ms.back(),
                p90_ms.back());
    samples = samples == 0 ? r.host_req_ms.size()
                           : std::min(samples, r.host_req_ms.size());
  }
  const RoundResult& first = rounds.front();
  // The host is shared and its speed drifts by tens of percent for seconds
  // at a time. Contention only ever adds cost, so each per-drive host
  // number is read off the least disturbed drive, as timeit reads the
  // fastest of its repeats.
  const std::string drives = "(best of " + std::to_string(rounds.size()) +
                             " drives, >= " + std::to_string(samples) +
                             " requests each)";
  const std::string modeled =
      "(modeled, " + std::to_string(first.modeled_ms.size()) + " requests)";
  std::printf("host clock:\n");
  report.add("setup_s", median(setup_s), "s",
             "(median of " + std::to_string(setup_s.size()) + " set-ups)");
  report.add("sim_rps", *std::max_element(rps.begin(), rps.end()), "req/s",
             drives);
  report.add("host_cpu_ms_per_req",
             *std::min_element(cpu_ms.begin(), cpu_ms.end()), "ms", drives);
  report.add("host_req_ms_p50",
             *std::min_element(p50_ms.begin(), p50_ms.end()), "ms", drives);
  // The tail is taken at p90: p99 of a host wall on a shared VM is set by
  // preemption spikes and drifts more between runs than any bound allows.
  // The trace run prints it as faas.invoke_host_ms_p99.
  report.add("host_req_ms_p90",
             *std::min_element(p90_ms.begin(), p90_ms.end()), "ms", drives);
  report.add("peak_rss_mib", peak_rss_mib(), "MiB");
  std::printf("modeled clock (digest %s):\n", first.modeled_digest.c_str());
  report.add("modeled_latency_ms_p50", quantile(first.modeled_ms, 0.50), "ms",
             modeled);
  report.add("modeled_latency_ms_p99", quantile(first.modeled_ms, 0.99), "ms",
             modeled);
  report.add("modeled_goodput_pct",
             100.0 * first.processed_rps / first.target_rps, "%");
  report.add("success_pct", 100.0 * double(completed) / double(sent), "%");
  report.print_json(sent, failed);
  return report.correct() ? 0 : 1;
}

// ---- --trace 1: per-layer metrics -------------------------------------------

void write_spans(const std::string& path,
                 const std::vector<std::vector<Span>>& spans) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
    return;
  }
  out << "thread,index,parent,request,call,start_ns,end_ns\n";
  for (const auto& log : spans) {
    for (std::size_t i = 0; i < log.size(); ++i) {
      const Span& s = log[i];
      out << s.thread << ',' << i + 1 << ',' << s.parent << ',' << s.request
          << ',' << call_name(s.call) << ',' << s.start_ns << ',' << s.end_ns
          << '\n';
    }
  }
}

int run_per_layer(const Args& args, const WorkloadSpec& spec) {
  const RoundResult plain = run_round(spec, args.seed);
  const RoundResult traced = run_round(spec, args.seed, {.probes = true});
  const RoundResult modeled = run_round(spec, args.seed, {.tracer = true});
  const double sobel_ms = sobel_execute_host_ms(5);
  print_context(args, 3);

  Report report;
  check_round(report, plain, 0);
  check_round(report, traced, 1);
  check_round(report, modeled, 2);
  report.expect(plain.modeled_digest == traced.modeled_digest,
                "probes are not transparent: traced modeled results differ");

  // Outside-in spans of the traced round.
  std::uint64_t stall_suspects = 0, queue_calls = 0, requests = 0;
  std::uint64_t ops = 0, syncs = 0;
  double blocking_us = 0.0, handle_us = 0.0;
  std::vector<double> self_us, finish_us, write_us, read_us, kernel_us;
  for (const auto& log : traced.trace.spans) {
    for (const Span& s : log) {
      if (is_ocl_call(s.call) && s.us() >= kStallGraceS * 1e6) ++stall_suspects;
      if (s.request == 0) continue;  // set-up
      if (is_queue_call(s.call)) ++queue_calls;
      if (is_blocking_call(s.call)) blocking_us += s.us();
      switch (s.call) {
        case Call::kInvoke: ++requests; break;
        case Call::kHandle:
          handle_us += s.us();
          // invoke is this span's parent; its self time is the difference.
          self_us.push_back(log[s.parent - 1].us() - s.us());
          break;
        // A finish is a task of its own and carries a marker op; a
        // blocking enqueue seals the task it ends.
        case Call::kFinish: finish_us.push_back(s.us()); ++ops; ++syncs; break;
        case Call::kWrite: write_us.push_back(s.us()); ++ops; break;
        case Call::kWriteBlocking:
          write_us.push_back(s.us()); ++ops; ++syncs; break;
        case Call::kRead: read_us.push_back(s.us()); ++ops; break;
        case Call::kReadBlocking:
          read_us.push_back(s.us()); ++ops; ++syncs; break;
        case Call::kKernel: kernel_us.push_back(s.us()); ++ops; break;
        default: break;
      }
    }
  }
  report.expect(requests == traced.completed,
                "traced invoke spans != completed requests");
  // The probes' own view of the drive must match the devmgr counters.
  report.expect(ops == traced.ops && syncs == traced.tasks,
                "ocl ops/syncs seen by the probes do not match the devmgr "
                "op/task counters");

  // Counters come from the untraced round (the probes allocate and sample
  // devmgr health); span metrics from the probed round.
  const double n = double(std::max<std::uint64_t>(traced.completed, 1));
  const double n_plain = double(std::max<std::uint64_t>(plain.completed, 1));
  const double plain_rps = double(plain.completed) / plain.drive_wall_s;
  const double traced_rps = double(traced.completed) / traced.drive_wall_s;
  double warm_max = 0.0;
  for (double w : traced.trace.warm_host_s) warm_max = std::max(warm_max, w);
  const std::uint64_t arena_total = plain.arena_hits + plain.arena_misses;

  std::printf("set-up (host clock):\n");
  report.add("vt.stall_suspect_calls", double(stall_suspects), "count",
             "(ocl calls blocked >= 1 s gate stall grace)");
  report.add("faas.warm_host_s_max", warm_max, "s");
  report.add("faas.warm_cpu_s", traced.trace.warm_cpu_s, "s");
  report.add("registry.deploy_host_ms", traced.trace.deploy_host_ms, "ms");
  std::printf("per request (host clock, %llu requests):\n",
              static_cast<unsigned long long>(traced.completed));
  report.add("faas.self_host_us", median(self_us), "us");
  report.add("faas.invoke_host_ms_p99", quantile(plain.host_req_ms, 0.99),
             "ms", "(untraced round)");
  report.add("remote.finish_host_us_p50", quantile(finish_us, 0.50), "us");
  report.add("remote.finish_host_us_p99", quantile(finish_us, 0.99), "us");
  report.add("remote.calls_per_req", double(queue_calls) / n, "count");
  report.add("remote.write_host_us_p50", quantile(write_us, 0.50), "us");
  report.add("remote.read_host_us_p50", quantile(read_us, 0.50), "us");
  report.add("remote.read_host_us_p99", quantile(read_us, 0.99), "us");
  report.add("remote.kernel_host_us_p50", quantile(kernel_us, 0.50), "us");
  report.add("remote.blocking_share_pct",
             handle_us > 0 ? 100.0 * blocking_us / handle_us : 0.0, "%");
  report.add("sim.sobel_execute_host_ms", sobel_ms, "ms",
             "(direct SobelKernel::execute, full HD)");
  report.add("common.arena_hit_pct",
             arena_total > 0 ? 100.0 * double(plain.arena_hits) /
                                   double(arena_total)
                             : 0.0,
             "%");
  report.add("common.bytes_deep_copies_per_req",
             double(plain.bytes_deep_copies) / n_plain, "count");
  report.add("common.heap_allocs_per_req", double(plain.heap_allocs) / n_plain,
             "count");
  report.add("trace.overhead_pct", 100.0 * (plain_rps - traced_rps) / plain_rps,
             "%", "(untraced vs traced sim_rps)");
  std::printf("counters (drive phase):\n");
  report.add("devmgr.tasks_per_req", double(plain.tasks) / n_plain, "count");
  report.add("devmgr.ops_per_req", double(plain.ops) / n_plain, "count");
  report.add("devmgr.tasks_cancelled", double(plain.tasks_cancelled),
             "count");
  report.add("devmgr.queue_depth_max", double(traced.trace.queue_depth_max),
             "count", "(sampled after each invoke)");
  report.add("sim.kernel_launches_per_req",
             double(plain.kernel_launches) / n_plain, "count");
  report.add("sim.reconfigurations", double(plain.reconfigurations), "count",
             "(whole round)");
  report.add("shm.bytes_per_req",
             spec.shared_memory ? double(plain.request_bytes) : 0.0, "B",
             "(computed: request_bytes_in + out on the shm path)");
  report.add("net.wire_bytes_per_req",
             spec.shared_memory ? 0.0 : double(plain.request_bytes), "B",
             "(computed: payload bytes on the gRPC path)");
  std::printf("modeled clock (measurement window; devmgr spans from the "
              "tracer round):\n");
  report.add("devmgr.queue_wait_ms_p50",
             quantile(modeled.trace.queue_wait_ms, 0.50), "ms");
  report.add("devmgr.queue_wait_ms_p99",
             quantile(modeled.trace.queue_wait_ms, 0.99), "ms");
  report.add("devmgr.execute_ms_p50", quantile(modeled.trace.execute_ms, 0.50),
             "ms");
  report.add("sim.utilization_pct", plain.utilization_pct, "%",
             "(3 boards, max 300)");

  if (!args.spans.empty()) write_spans(args.spans, traced.trace.spans);
  report.print_json(plain.sent + traced.sent + modeled.sent,
                    plain.failed + traced.failed + modeled.failed);
  return report.correct() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Args args = parse(argc, argv);
#ifndef NDEBUG
  const bool optimized = false;
#else
  const bool optimized = std::string(BF_PERFBENCH_BUILD_TYPE) == "Release";
#endif
  if (!optimized) {
    std::fprintf(stderr,
                 "perfbench: refusing to record from a non-Release build "
                 "(build type '%s')\n",
                 BF_PERFBENCH_BUILD_TYPE);
    return 3;
  }
  const WorkloadSpec& spec = *find_workload(args.workload);
  return args.trace ? run_per_layer(args, spec) : run_end_to_end(args, spec);
}
