#include "scenario.h"

#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <thread>

#include "alloc_hook.h"
#include "common/arena.h"
#include "common/bytes.h"
#include "common/rng.h"
#include "sim/kernels.h"
#include "sim/memory.h"
#include "testbed/testbed.h"
#include "trace/chrome_trace.h"
#include "workloads/alexnet.h"
#include "workloads/sobel.h"

namespace perfbench {

using namespace bf;

const std::vector<WorkloadSpec>& workload_specs() {
  // Rates are the paper's high-load rows (Table IV AlexNet 9/9/6/6, Table II
  // Sobel 60/50/35/30). Horizons are modeled time, sized so that one round's
  // drive costs a few host seconds on a 4-core x86 host.
  static const std::vector<WorkloadSpec> specs = {
      {"alexnet-share", App::kAlexNet, {9, 9, 6, 6}, true, false,
       vt::Duration::seconds(4), vt::Duration::seconds(238)},
      {"sobel-share", App::kSobel, {60, 50, 35, 30}, true, false,
       vt::Duration::seconds(2), vt::Duration::seconds(14)},
      {"sobel-grpc", App::kSobel, {60}, false, true,
       vt::Duration::seconds(1), vt::Duration::millis(8500)},
  };
  return specs;
}

const WorkloadSpec* find_workload(std::string_view name) {
  for (const WorkloadSpec& spec : workload_specs()) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

namespace {

std::uint64_t mix(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (salt + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// A tenant's send schedule relative to the common drive start: a start
// phase in [0, 1/rate) and exponential gaps around 1/rate, drawn until they
// cover the horizon. The closed loop sends at max(now, previous send + gap).
struct Schedule {
  vt::Duration phase;
  std::vector<vt::Duration> gaps;
};

Schedule make_schedule(std::uint64_t seed, std::size_t tenant, double rate,
                       vt::Duration span) {
  Rng rng(mix(seed, tenant));
  Schedule schedule;
  schedule.phase = vt::Duration::from_seconds_f(rng.next_double() / rate);
  vt::Duration covered = schedule.phase;
  while (covered < span) {
    const double gap_s = -std::log(1.0 - rng.next_double()) / rate;
    schedule.gaps.push_back(vt::Duration::from_seconds_f(gap_s));
    covered = covered + schedule.gaps.back();
  }
  return schedule;
}

std::int64_t thread_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return std::int64_t(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

struct Tenant {
  std::string function;
  double rate = 0.0;
  std::shared_ptr<faas::FunctionInstance> instance;
  ProbedWorkload* workload = nullptr;  // owned by the instance
  Schedule schedule;

  std::uint64_t sent = 0, completed = 0, failed = 0, measured = 0;
  std::vector<std::int64_t> latency_ns;  // every completed request
  std::vector<double> modeled_ms;        // measured requests, from due time
  std::vector<double> host_ms;           // measured requests
  std::uint64_t checked = 0, wrong = 0;
  std::int64_t check_wall_ns = 0, check_cpu_ns = 0;
  std::size_t depth_max = 0;
  std::string first_error;
};

struct Window {
  vt::Time start;          // common drive start
  vt::Time measure_start;  // start + warmup
  vt::Time horizon;        // measure_start + duration
};

void drive(Tenant& t, std::size_t index, const Window& window,
           testbed::Testbed& bed, bool probes,
           const std::vector<std::uint32_t>* reference) {
  // `due` is when the schedule wanted the request sent; a closed loop sends
  // it late when the previous reply is late, and that wait is the client's.
  vt::Time due = window.start + t.schedule.phase;
  vt::Time next = due;
  std::size_t k = 0;
  // No allocation of the load thread's own inside the drive.
  t.latency_ns.reserve(t.schedule.gaps.size() + 1);
  t.modeled_ms.reserve(t.schedule.gaps.size() + 1);
  t.host_ms.reserve(t.schedule.gaps.size() + 1);
  while (next < window.horizon) {
    t.instance->advance_clock_to(next);
    const bool measured = next >= window.measure_start;
    SpanLog::set_request((std::uint64_t(index + 1) << 40) | (t.sent + 1));
    const std::int64_t h0 = steady_ns();
    auto result = [&] {
      SpanLog::Scope scope(Call::kInvoke);
      return t.instance->invoke();
    }();
    const std::int64_t h1 = steady_ns();
    ++t.sent;
    if (result.ok()) {
      ++t.completed;
      const vt::Duration response = result.value().completed_at - due;
      t.latency_ns.push_back(response.ns());
      if (measured) {
        ++t.measured;
        t.modeled_ms.push_back(response.ms());
        t.host_ms.push_back(double(h1 - h0) / 1e6);
      }
    } else {
      ++t.failed;
      if (t.first_error.empty()) t.first_error = result.status().to_string();
    }
    if (reference != nullptr && result.ok()) {
      // Outside the timed invoke; its cost is taken out of the drive totals.
      const std::int64_t c0 = thread_cpu_ns();
      const std::int64_t w0 = steady_ns();
      auto& sobel =
          static_cast<workloads::SobelWorkload&>(t.workload->inner());
      ++t.checked;
      if (sobel.last_output() != *reference) ++t.wrong;
      t.check_wall_ns += steady_ns() - w0;
      t.check_cpu_ns += thread_cpu_ns() - c0;
    }
    if (probes) {
      for (const std::string& node : bed.node_names()) {
        auto health = bed.manager(node).health();
        if (health.ok()) {
          t.depth_max = std::max(t.depth_max, health.value().queue_depth);
        }
      }
    }
    if (k == t.schedule.gaps.size()) break;
    due = next + t.schedule.gaps[k++];
    next = vt::max(t.instance->now(), due);
  }
  SpanLog::set_request(0);
  // Release the device so other tenants' later-stamped work can proceed.
  t.instance->shutdown();
}

struct Counters {
  std::uint64_t tasks = 0, ops = 0, cancelled = 0, launches = 0, reconf = 0;
  arena::Stats arena;
  std::uint64_t deep_copies = 0, heap_allocs = 0;
};

Counters read_counters(testbed::Testbed& bed) {
  Counters c;
  for (const std::string& node : bed.node_names()) {
    devmgr::DeviceManager& manager = bed.manager(node);
    c.tasks += manager.tasks_executed();
    c.ops += manager.ops_executed();
    c.cancelled += manager.tasks_cancelled();
    c.launches += bed.board(node).kernel_launch_count();
    c.reconf += bed.board(node).reconfiguration_count();
  }
  c.arena = arena::stats();
  c.deep_copies = Bytes::deep_copy_count();
  c.heap_allocs = heap_alloc_count();
  return c;
}

// FNV-1a over every modeled number of the round.
class Digest {
 public:
  void add(std::uint64_t value) {
    for (int i = 0; i < 8; ++i) {
      hash_ = (hash_ ^ ((value >> (8 * i)) & 0xFF)) * 0x100000001b3ULL;
    }
  }
  [[nodiscard]] std::string hex() const {
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(hash_));
    return buf;
  }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

const std::vector<std::uint32_t>& sobel_frame_reference() {
  static const std::vector<std::uint32_t> reference = [] {
    workloads::SobelWorkload frame;
    return workloads::sobel_reference(frame.input_frame(), 1920, 1080);
  }();
  return reference;
}

}  // namespace

RoundResult run_round(const WorkloadSpec& spec, std::uint64_t seed,
                      RoundOptions round) {
  const bool probes = round.probes;
  RoundResult out;
  const std::vector<std::uint32_t>* reference =
      spec.functional ? &sobel_frame_reference() : nullptr;
  // Output checks are single-tenant so their cost can be taken out exactly.
  BF_CHECK(!spec.functional || spec.rates.size() == 1);

  std::vector<Tenant> tenants(spec.rates.size());
  for (std::size_t i = 0; i < tenants.size(); ++i) {
    tenants[i].function = spec.name + "-" + std::to_string(i + 1);
    tenants[i].rate = spec.rates[i];
    tenants[i].schedule = make_schedule(seed, i, spec.rates[i],
                                        spec.warmup + spec.duration);
  }

  trace::TraceBuilder builder(seed);  // must outlive the testbed
  SpanLog::set_enabled(probes);
  const std::int64_t setup_start = steady_ns();
  Window window;
  {
    testbed::TestbedOptions options;
    options.functional_boards = spec.functional;
    options.use_shared_memory = spec.shared_memory;
    if (round.tracer) options.trace = &builder;
    testbed::Testbed bed(options);

    for (Tenant& t : tenants) {
      auto factory = [&spec, &t, probes]() -> workloads::WorkloadPtr {
        workloads::WorkloadPtr inner;
        if (spec.app == App::kSobel) {
          inner = std::make_unique<workloads::SobelWorkload>();
        } else {
          workloads::AlexNetOptions alexnet;
          alexnet.functional = spec.functional;
          inner = std::make_unique<workloads::AlexNetWorkload>(alexnet);
        }
        auto probed =
            std::make_unique<ProbedWorkload>(std::move(inner), probes);
        // deploy_blastfunction builds a throwaway probe first and the
        // function instance's workload last, so the last one sticks.
        t.workload = probed.get();
        return probed;
      };
      const std::int64_t d0 = steady_ns();
      Status deployed = [&] {
        SpanLog::Scope scope(Call::kDeploy);
        return bed.deploy_blastfunction(t.function, factory);
      }();
      out.trace.deploy_host_ms += double(steady_ns() - d0) / 1e6;
      BF_CHECK(deployed.ok());
      t.instance = bed.gateway().instance(t.function);
      BF_CHECK(t.instance != nullptr);
    }
    // Every cold start runs sequentially before load (table3/4 prewarm).
    for (Tenant& t : tenants) {
      const double c0 = process_cpu_s();
      const std::int64_t w0 = steady_ns();
      Status warmed = [&] {
        SpanLog::Scope scope(Call::kWarm);
        return bed.gateway().warm(t.function);
      }();
      out.trace.warm_host_s.push_back(double(steady_ns() - w0) / 1e9);
      out.trace.warm_cpu_s += process_cpu_s() - c0;
      BF_CHECK(warmed.ok());
    }
    window.start = vt::Time::zero();
    for (Tenant& t : tenants) {
      window.start = vt::max(window.start, t.instance->now());
    }
    window.measure_start = window.start + spec.warmup;
    window.horizon = window.measure_start + spec.duration;
    out.setup_s = double(steady_ns() - setup_start) / 1e9;
    if (round.setup_only) {
      SpanLog::set_enabled(false);
      return out;
    }

    if (spec.app == App::kSobel) {
      out.expected_tasks_per_req = 1;  // write, kernel, blocking read
      out.expected_ops_per_req = 3;
    } else {
      // Blocking input write, one kernel + finish per layer, blocking
      // read; each finish is a task of its own and carries a marker op.
      const auto& alexnet = static_cast<workloads::AlexNetWorkload&>(
          tenants.front().workload->inner());
      out.expected_tasks_per_req = alexnet.layer_count() + 2;
      out.expected_ops_per_req = 2 * alexnet.layer_count() + 2;
    }
    out.request_bytes = tenants.front().workload->request_bytes_in() +
                        tenants.front().workload->request_bytes_out();

    const Counters before = read_counters(bed);
    const double cpu0 = process_cpu_s();
    const std::int64_t wall0 = steady_ns();
    std::vector<std::thread> threads;
    threads.reserve(tenants.size());
    for (std::size_t i = 0; i < tenants.size(); ++i) {
      threads.emplace_back([&, i] {
        drive(tenants[i], i, window, bed, probes, reference);
      });
    }
    for (std::thread& thread : threads) thread.join();
    const std::int64_t wall1 = steady_ns();
    const double cpu1 = process_cpu_s();
    const Counters after = read_counters(bed);

    out.drive_wall_s = double(wall1 - wall0) / 1e9;
    out.drive_cpu_s = cpu1 - cpu0;
    out.tasks = after.tasks - before.tasks;
    out.ops = after.ops - before.ops;
    out.tasks_cancelled = after.cancelled - before.cancelled;
    out.kernel_launches = after.launches - before.launches;
    out.reconfigurations = after.reconf;
    out.arena_hits = after.arena.hits - before.arena.hits;
    out.arena_misses = after.arena.misses - before.arena.misses;
    out.bytes_deep_copies = after.deep_copies - before.deep_copies;
    out.heap_allocs = after.heap_allocs - before.heap_allocs;
    out.utilization_pct =
        bed.aggregate_utilization_pct(window.measure_start, window.horizon);

    if (round.tracer) {
      for (const trace::Span& span : builder.spans()) {
        if (span.start < window.measure_start || span.start >= window.horizon) {
          continue;
        }
        if (span.name == "queue-wait") {
          out.trace.queue_wait_ms.push_back((span.end - span.start).ms());
        } else if (span.name == "execute") {
          out.trace.execute_ms.push_back((span.end - span.start).ms());
        }
      }
    }
  }
  SpanLog::set_enabled(false);
  if (probes) out.trace.spans = SpanLog::drain();

  Digest digest;
  digest.add(std::uint64_t(window.start.ns()));
  for (const Tenant& t : tenants) {
    digest.add(t.sent);
    digest.add(t.completed);
    digest.add(t.failed);
    digest.add(t.measured);
    for (std::int64_t ns : t.latency_ns) digest.add(std::uint64_t(ns));
    out.sent += t.sent;
    out.completed += t.completed;
    out.failed += t.failed;
    out.processed_rps += double(t.measured) / spec.duration.sec();
    out.target_rps += t.rate;
    out.modeled_ms.insert(out.modeled_ms.end(), t.modeled_ms.begin(),
                          t.modeled_ms.end());
    out.host_req_ms.insert(out.host_req_ms.end(), t.host_ms.begin(),
                           t.host_ms.end());
    out.drive_wall_s -= double(t.check_wall_ns) / 1e9;
    out.drive_cpu_s -= double(t.check_cpu_ns) / 1e9;
    out.outputs_checked += t.checked;
    out.outputs_wrong += t.wrong;
    out.trace.queue_depth_max =
        std::max(out.trace.queue_depth_max, t.depth_max);
    if (!t.first_error.empty()) {
      std::fprintf(stderr, "perfbench: %s: %s\n", t.function.c_str(),
                   t.first_error.c_str());
    }
  }
  std::uint64_t util_bits = 0;
  static_assert(sizeof(util_bits) == sizeof(out.utilization_pct));
  std::memcpy(&util_bits, &out.utilization_pct, sizeof(util_bits));
  digest.add(util_bits);
  out.modeled_digest = digest.hex();
  return out;
}

double sobel_execute_host_ms(int reps) {
  constexpr std::size_t kWidth = 1920, kHeight = 1080;
  constexpr std::size_t kBytes = kWidth * kHeight * sizeof(std::uint32_t);
  workloads::SobelWorkload frame;
  sim::DeviceMemory memory(4 * kBytes);
  auto in = memory.allocate(kBytes);
  auto out = memory.allocate(kBytes);
  BF_CHECK(in.ok() && out.ok());
  BF_CHECK(memory
               .write(in.value(), 0,
                      as_bytes(frame.input_frame().data(), kBytes))
               .ok());
  sim::KernelLaunch launch;
  launch.kernel = "sobel";
  launch.args = {in.value(), out.value(), std::int64_t(kWidth),
                 std::int64_t(kHeight)};
  launch.global_size = {kWidth, kHeight, 1};
  sim::SobelKernel kernel;
  std::vector<double> samples;
  for (int i = 0; i < reps; ++i) {
    const std::int64_t t0 = steady_ns();
    BF_CHECK(kernel.execute(launch, memory).ok());
    samples.push_back(double(steady_ns() - t0) / 1e6);
  }
  std::vector<std::uint32_t> result(kWidth * kHeight);
  BF_CHECK(memory
               .read(out.value(), 0, as_writable_bytes(result.data(), kBytes))
               .ok());
  BF_CHECK(result == sobel_frame_reference());
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
}

}  // namespace perfbench
