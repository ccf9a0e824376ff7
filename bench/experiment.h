// Shared machinery for the paper-reproduction benchmarks (Tables I-IV,
// Figure 4). Header-only: every bench binary is a standalone main.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "devmgr/device_manager.h"
#include "loadgen/loadgen.h"
#include "native/native_runtime.h"
#include "remote/remote_runtime.h"
#include "shm/namespace.h"
#include "sim/bitstream.h"
#include "sim/board.h"
#include "testbed/testbed.h"
#include "workloads/alexnet.h"
#include "workloads/matmul.h"
#include "workloads/sobel.h"

namespace bf::bench {

// Set BF_FIG_SMOKE=1 to cap the figure sweeps at small sizes. Used by the
// perf-smoke ctest label so CI exercises every data path in seconds; the
// per-point numbers are identical to a full run (the sweep is just shorter).
inline bool fig_smoke() {
  const char* env = std::getenv("BF_FIG_SMOKE");
  return env != nullptr && env[0] != '\0' && env[0] != '0';
}

// ---- Paper Table I: load configurations (rq/s per function) -----------------

struct LoadConfig {
  std::string name;           // "Low load" / ...
  std::vector<double> rates;  // per function; native uses the first 3
};

inline std::vector<LoadConfig> sobel_configs() {
  return {{"Low Load", {20, 15, 10, 5, 5}},
          {"Medium Load", {35, 30, 25, 20, 15}},
          {"High Load", {60, 50, 35, 30, 15}}};
}

inline std::vector<LoadConfig> mm_configs() {
  return {{"Low Load", {28, 21, 14, 7, 7}},
          {"Medium Load", {49, 42, 35, 28, 21}},
          {"High Load", {84, 70, 49, 42, 21}}};
}

inline std::vector<LoadConfig> alexnet_configs() {
  return {{"Medium Load", {6, 3, 3, 3, 3}},
          {"High Load", {9, 9, 6, 6, 3}}};
}

// ---- Gate liveness -------------------------------------------------------------

// A stall fallback (docs/VIRTUAL_TIME.md) is the conservative gate's
// liveness escape, never part of a reproduced result: every bench checks,
// before teardown, that no Device Manager took one. Silent on success, so
// stdout is unchanged.
inline void check_no_stall_fallbacks(const devmgr::DeviceManager& manager) {
  const std::uint64_t fallbacks = manager.stall_fallbacks();
  if (fallbacks != 0) {
    std::fprintf(stderr, "%s: %llu gate stall fallbacks\n",
                 manager.id().c_str(),
                 static_cast<unsigned long long>(fallbacks));
  }
  BF_CHECK(fallbacks == 0);
}

inline void check_no_stall_fallbacks(testbed::Testbed& bed) {
  for (const std::string& node : bed.node_names()) {
    check_no_stall_fallbacks(bed.manager(node));
  }
}

// ---- Multi-function sharing experiment (Tables II-IV) ------------------------

struct FunctionRow {
  std::string function;
  std::string node;
  double utilization_pct = 0.0;  // per-function device busy share
  double latency_ms = 0.0;
  double latency_p99_ms = 0.0;
  double processed_rps = 0.0;
  double target_rps = 0.0;
};

struct ScenarioResult {
  std::string scenario;  // "BlastFunction" / "Native"
  std::string configuration;
  std::vector<FunctionRow> rows;
  double aggregate_utilization_pct = 0.0;  // max 300% (3 boards)
  double aggregate_latency_ms = 0.0;       // request-weighted mean
  double aggregate_latency_p99_ms = 0.0;   // p99 over all measured requests
  double aggregate_processed_rps = 0.0;
  double aggregate_target_rps = 0.0;
};

struct SharingOptions {
  vt::Duration warmup = vt::Duration::seconds(4);
  vt::Duration duration = vt::Duration::seconds(20);
  // Native functions that must keep a warm process (PipeCNN: weights).
  faas::ExecutionMode native_mode = faas::ExecutionMode::kForkPerRequest;
  // Testbed knobs for the cell (scheduler batching, call options, ...).
  testbed::TestbedOptions testbed{};
  // Cold-start every function sequentially (deployment order) before the
  // drivers go concurrent. This makes every tenant's device-manager session
  // and gate registration exist up front, so cross-tenant ordering of
  // equal-stamp tasks never depends on which driver thread connected first —
  // the table3/4 run-to-run flakiness fix. Off by default: the lazy
  // cold-start timeline of table1/2 and the figures is part of their golden
  // output.
  bool prewarm = false;
};

// Runs one (scenario, configuration) cell: deploys `prefix-1..N` functions,
// drives them closed-loop at the configured rates, reports per-function and
// aggregate rows.
inline ScenarioResult run_sharing_cell(bool blastfunction,
                                       const std::string& prefix,
                                       const workloads::WorkloadFactory& make,
                                       const LoadConfig& config,
                                       const SharingOptions& options = {}) {
  testbed::Testbed bed(options.testbed);

  const std::size_t count = blastfunction ? config.rates.size() : 3;
  for (std::size_t i = 0; i < count; ++i) {
    const std::string name = prefix + "-" + std::to_string(i + 1);
    Status deployed =
        blastfunction
            ? bed.deploy_blastfunction(name, make)
            : bed.deploy_native(name, make,
                                testbed::Testbed::kNodeNames[i],
                                options.native_mode);
    BF_CHECK(deployed.ok());
  }
  if (options.prewarm) {
    for (std::size_t i = 0; i < count; ++i) {
      const std::string name = prefix + "-" + std::to_string(i + 1);
      BF_CHECK(bed.gateway().warm(name).ok());
    }
  }

  std::vector<loadgen::DriveSpec> specs;
  for (std::size_t i = 0; i < count; ++i) {
    loadgen::DriveSpec spec;
    spec.function = prefix + "-" + std::to_string(i + 1);
    spec.target_rps = config.rates[i];
    spec.warmup = options.warmup;
    spec.duration = options.duration;
    specs.push_back(spec);
  }
  auto results = loadgen::drive_all(bed.gateway(), specs);

  ScenarioResult out;
  out.scenario = blastfunction ? "BlastFunction" : "Native";
  out.configuration = config.name;

  // Measurement window, derived from the drivers themselves: prewarm (or any
  // future per-driver clock offset) shifts each driver's window, and the
  // utilization numbers must cover exactly the span every driver measured.
  // Without prewarm each driver starts at t=0, so this reduces to the
  // historical [warmup, warmup + duration) window bit-for-bit.
  vt::Time from = vt::Time::zero() + options.warmup;
  vt::Time to = from + options.duration;
  if (!results.empty()) {
    from = results.front().measure_start;
    to = results.front().horizon;
    for (const auto& r : results) {
      from = vt::max(from, r.measure_start);
      to = to < r.horizon ? to : r.horizon;
    }
  }
  double weighted_latency = 0.0;
  double total_ok = 0.0;
  SampleStats all_latency;
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& r = results[i];
    FunctionRow row;
    row.function = r.function;
    row.node = r.node;
    row.latency_ms = r.latency_ms.empty() ? 0.0 : r.latency_ms.mean();
    row.latency_p99_ms =
        r.latency_ms.empty() ? 0.0 : r.latency_ms.percentile(0.99);
    all_latency.merge(r.latency_ms);
    row.processed_rps = r.processed_rps;
    row.target_rps = r.target_rps;
    if (blastfunction) {
      // Device busy attributable to this function's pod.
      const std::string pod = r.function + "-0";
      double busy_sec = 0.0;
      for (const char* node : testbed::Testbed::kNodeNames) {
        busy_sec += bed.manager(node).client_busy_between(pod, from, to).sec();
      }
      row.utilization_pct = 100.0 * busy_sec / (to - from).sec();
    } else {
      // Native: one function per board; board busy == function busy.
      row.utilization_pct = bed.node_utilization_pct(r.node, from, to);
    }
    weighted_latency += row.latency_ms * static_cast<double>(r.ok);
    total_ok += static_cast<double>(r.ok);
    out.aggregate_processed_rps += row.processed_rps;
    out.aggregate_target_rps += row.target_rps;
    out.rows.push_back(std::move(row));
  }
  out.aggregate_utilization_pct = bed.aggregate_utilization_pct(from, to);
  out.aggregate_latency_ms = total_ok > 0 ? weighted_latency / total_ok : 0.0;
  out.aggregate_latency_p99_ms =
      all_latency.empty() ? 0.0 : all_latency.percentile(0.99);
  check_no_stall_fallbacks(bed);
  return out;
}

inline void print_per_function_table(const std::vector<ScenarioResult>& cells) {
  std::printf(
      "%-14s | %-12s | %-9s | %-4s | %7s | %9s | %10s | %10s\n", "Type",
      "Configuration", "Function", "Node", "Util.", "Latency", "Processed",
      "Target");
  std::printf("%s\n", std::string(96, '-').c_str());
  for (const ScenarioResult& cell : cells) {
    for (const FunctionRow& row : cell.rows) {
      std::printf(
          "%-14s | %-12s | %-9s | %-4s | %5.2f%% | %6.2f ms | %5.2f rq/s | "
          "%5.2f rq/s\n",
          cell.scenario.c_str(), cell.configuration.c_str(),
          row.function.c_str(), row.node.c_str(), row.utilization_pct,
          row.latency_ms, row.processed_rps, row.target_rps);
    }
  }
}

inline void print_aggregate_table(const std::vector<ScenarioResult>& cells) {
  std::printf("%-14s | %-12s | %11s | %9s | %11s | %10s\n", "Type",
              "Configuration", "Utilization", "Latency", "Processed",
              "Target");
  std::printf("%s\n", std::string(84, '-').c_str());
  for (const ScenarioResult& cell : cells) {
    std::printf(
        "%-14s | %-12s | %9.2f%% | %6.2f ms | %6.2f rq/s | %5.0f rq/s\n",
        cell.scenario.c_str(), cell.configuration.c_str(),
        cell.aggregate_utilization_pct, cell.aggregate_latency_ms,
        cell.aggregate_processed_rps, cell.aggregate_target_rps);
  }
}

// ---- Single-node overhead rigs (Figure 4) -------------------------------------

enum class DataPath { kNative, kGrpc, kShm };

inline const char* to_string(DataPath path) {
  switch (path) {
    case DataPath::kNative: return "Native";
    case DataPath::kGrpc: return "BlastFunction";
    case DataPath::kShm: return "BlastFunction shm";
  }
  return "?";
}

// One board on worker node B plus (for the remote paths) a Device Manager,
// mirroring the paper's single-node overhead setup (§IV-A).
class OverheadRig {
 public:
  explicit OverheadRig(DataPath path, bool functional = false) : path_(path) {
    sim::BoardConfig bc;
    bc.id = "fpga-b";
    bc.node = "B";
    bc.host = sim::make_node_b();
    bc.functional = functional;
    board_ = std::make_unique<sim::Board>(bc);
    if (path == DataPath::kNative) {
      runtime_ = std::make_unique<native::NativeRuntime>(
          std::vector<sim::Board*>{board_.get()});
      return;
    }
    devmgr::DeviceManagerConfig mc;
    mc.id = "devmgr-b";
    mc.allow_shared_memory = path == DataPath::kShm;
    manager_ = std::make_unique<devmgr::DeviceManager>(
        mc, board_.get(), path == DataPath::kShm ? &shm_ : nullptr);
    remote::ManagerAddress address;
    address.endpoint = &manager_->endpoint();
    address.transport = path == DataPath::kShm ? net::local_control(bc.host)
                                               : net::local_grpc(bc.host);
    address.node_shm = path == DataPath::kShm ? &shm_ : nullptr;
    address.prefer_shared_memory = path == DataPath::kShm;
    runtime_ = std::make_unique<remote::RemoteRuntime>(
        std::vector<remote::ManagerAddress>{address});
  }

  [[nodiscard]] ocl::Runtime& runtime() { return *runtime_; }
  [[nodiscard]] sim::Board& board() { return *board_; }
  [[nodiscard]] DataPath path() const { return path_; }
  // Null on the native path.
  [[nodiscard]] const devmgr::DeviceManager* manager() const {
    return manager_.get();
  }

 private:
  DataPath path_;
  shm::Namespace shm_;
  std::unique_ptr<sim::Board> board_;
  std::unique_ptr<devmgr::DeviceManager> manager_;
  std::unique_ptr<ocl::Runtime> runtime_;
};

// The native path has no Device Manager, so nothing to check.
inline void check_no_stall_fallbacks(const OverheadRig& rig) {
  if (rig.manager() != nullptr) check_no_stall_fallbacks(*rig.manager());
}

inline std::string human_size(std::uint64_t bytes) {
  char buf[32];
  if (bytes >= kGiB) {
    std::snprintf(buf, sizeof(buf), "%.0fGB", double(bytes) / double(kGiB));
  } else if (bytes >= kMiB) {
    std::snprintf(buf, sizeof(buf), "%.0fMB", double(bytes) / double(kMiB));
  } else {
    std::snprintf(buf, sizeof(buf), "%.0fKB", double(bytes) / double(kKiB));
  }
  return buf;
}

}  // namespace bf::bench
