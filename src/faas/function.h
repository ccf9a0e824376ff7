// Serverless function instances (the OpenFaaS substrate).
//
// Two execution modes, matching how the paper's two deployments behave:
//  * kPersistent — of-watchdog style: the function process stays warm, the
//    OpenCL context is created once at cold start. All BlastFunction
//    deployments (and the PipeCNN native deployment, whose 233 MB of weights
//    make per-request setup impossible) run this way.
//  * kForkPerRequest — classic-watchdog style: each request forks a fresh
//    handler process which attaches its own OpenCL context (fork cost +
//    device attach). The paper's native Sobel/MM latencies carry this
//    per-request runtime overhead.
#pragma once

#include <functional>
#include <memory>
#include <mutex>
#include <string>

#include "cluster/cluster.h"
#include "common/status.h"
#include "ocl/runtime.h"
#include "trace/span.h"
#include "workloads/workload.h"

namespace bf::faas {

enum class ExecutionMode { kPersistent, kForkPerRequest };

// How a pod reaches its OpenCL runtime. The experiment fabric resolves this
// from the pod's env (BlastFunction: the Registry-patched manager address)
// or from the pod's node (native: local boards).
struct RuntimeBinding {
  std::shared_ptr<ocl::Runtime> runtime;
  std::string device_id;
};
using BindingResolver =
    std::function<Result<RuntimeBinding>(const cluster::Pod&)>;

struct FunctionConfig {
  std::string name;  // e.g. "sobel-1"
  ExecutionMode mode = ExecutionMode::kPersistent;
  workloads::WorkloadFactory make_workload;
  // Fixed modeled per-request path costs (gateway hop + HTTP handling).
  vt::Duration gateway_overhead = vt::Duration::micros(600);
  vt::Duration handler_overhead = vt::Duration::micros(400);
};

struct InvokeResult {
  vt::Duration latency;
  vt::Time completed_at;
  // End-to-end latency as the gateway reports it: from request acceptance
  // (before the gateway/handler overheads) to completion — exactly the
  // request's root trace span, so critical_path() totals match it.
  vt::Duration e2e_latency;
  // Root trace id of this request (0 when tracing is disabled).
  std::uint64_t trace_id = 0;
};

class FunctionInstance {
 public:
  FunctionInstance(cluster::Pod pod, const FunctionConfig& config,
                   BindingResolver resolver, sim::NodeProfile node);
  ~FunctionInstance();

  FunctionInstance(const FunctionInstance&) = delete;
  FunctionInstance& operator=(const FunctionInstance&) = delete;

  [[nodiscard]] const cluster::Pod& pod() const { return pod_; }
  [[nodiscard]] const std::string& function() const {
    return pod_.spec.function;
  }

  // Serves one request on the caller's thread (the paper's 1-connection-per-
  // function closed loop). Thread safe; concurrent invokes serialize.
  Result<InvokeResult> invoke();

  // Idle time between requests (open/rate-limited load): moves the virtual
  // clock forward without doing work.
  void advance_clock_to(vt::Time t);
  [[nodiscard]] vt::Time now();

  [[nodiscard]] std::uint64_t requests_served() const;
  [[nodiscard]] std::uint64_t errors() const;
  [[nodiscard]] bool cold() const;

  // Eagerly performs the persistent-mode cold start (context creation +
  // workload setup) that invoke() would otherwise do lazily on the first
  // request. No-op when already warm or in fork-per-request mode. Warming
  // sequentially before driving load makes every tenant's device-manager
  // session (and gate registration) exist up front, so cross-tenant task
  // order never depends on which driver thread connected first. Must not
  // run concurrently with load on the same gateway: a warm parks the
  // gateway's other warm instances (Gateway::warm).
  Status warm();

  // Parking (Gateway::warm only): the caller promises that this instance
  // issues nothing until unpark(), so its context publishes an infinite
  // gate bound and a co-tenant's cold start never waits on this instance's
  // idle cursor. No-op while the instance holds no persistent context
  // (cold, or fork-per-request).
  void park();
  // Ends parking: re-announces the instance's own clock as its bound.
  void unpark();

  // Tears down the OpenCL context (end of experiment / pod deletion) so the
  // device manager's gate no longer waits on this tenant.
  void shutdown();

 private:
  Status cold_start_locked();
  Result<InvokeResult> invoke_locked(const trace::SpanContext& root,
                                     vt::Time accepted);

  cluster::Pod pod_;
  FunctionConfig config_;
  BindingResolver resolver_;
  sim::NodeProfile node_;

  std::mutex mutex_;
  ocl::Session session_;
  workloads::WorkloadPtr workload_;
  std::shared_ptr<ocl::Runtime> runtime_;
  std::unique_ptr<ocl::Context> context_;  // persistent mode
  std::uint64_t served_ = 0;
  std::uint64_t errors_ = 0;
  std::uint64_t trace_seq_ = 0;  // per-pod request counter for trace minting
};

}  // namespace bf::faas
