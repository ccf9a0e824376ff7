// OpenFaaS-style gateway: deploys functions as pods, tracks their running
// instances through cluster watch events (so Registry-driven migrations
// transparently rebind instances to new devices), routes invocations and
// offers simple replica scaling.
#pragma once

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "faas/function.h"

namespace bf::faas {

// Graceful degradation knobs. Defaults are zero-cost: one attempt, breaker
// disabled — modeled timelines are bit-identical to the pre-policy gateway.
struct GatewayPolicy {
  // Bounded retry: total invoke attempts per request, round-robined across
  // replicas. 1 = fail on the first error (no retry). Only transient
  // failures (kUnavailable, kDeadlineExceeded, kResourceExhausted,
  // kAborted — at-least-once request semantics) consume extra attempts.
  unsigned max_invoke_attempts = 1;
  // Modeled pause charged to the retrying replica's clock between attempts.
  vt::Duration retry_backoff = vt::Duration::millis(2);
  // Per-function circuit breaker: after this many *consecutive* failed
  // requests the gateway fast-fails with kUnavailable ("HTTP 503") instead
  // of touching a replica. 0 disables the breaker.
  unsigned breaker_threshold = 0;
  // An open circuit admits one half-open trial request after this long; a
  // success closes the circuit, a failure re-arms the cooldown.
  vt::Duration breaker_cooldown = vt::Duration::seconds(1);
};

class Gateway {
 public:
  Gateway(cluster::Cluster* cluster, BindingResolver resolver,
          GatewayPolicy policy = {});

  Gateway(const Gateway&) = delete;
  Gateway& operator=(const Gateway&) = delete;

  // Deploys `replicas` pods named "<function>-<i>". Instances appear via the
  // cluster watch. `node_pin` forces the node (used by the native baseline,
  // which binds each function to the node holding its board); empty lets the
  // Registry/scheduler decide.
  Status deploy(FunctionConfig config, unsigned replicas = 1,
                const std::string& node_pin = "");
  Status remove(const std::string& function);
  Status scale(const std::string& function, unsigned replicas);

  // Routes one request to an instance of the function (round robin across
  // replicas). Runs on the caller's thread. Applies GatewayPolicy: retryable
  // failures are retried on the next replica up to max_invoke_attempts, and
  // once the function's circuit is open requests fast-fail kUnavailable
  // without reaching any replica.
  Result<InvokeResult> invoke(const std::string& function);

  // True while the function's breaker is open (requests are being shed).
  [[nodiscard]] bool is_circuit_open(const std::string& function) const;

  // Stable handle for load drivers that pin one connection per function.
  [[nodiscard]] std::shared_ptr<FunctionInstance> instance(
      const std::string& function, std::size_t replica = 0) const;

  [[nodiscard]] std::vector<std::shared_ptr<FunctionInstance>> instances(
      const std::string& function) const;
  [[nodiscard]] std::size_t instance_count() const;

  // Eagerly cold-starts every replica of the function, in replica order
  // (FunctionInstance::warm). Called sequentially before driving load it
  // makes session/gate registration order deterministic instead of a race
  // between driver threads. Returns the first failure.
  //
  // For the duration of the call every other warm instance of this gateway
  // (and each replica once it is warm) is parked, so a cold start whose
  // set-up calls are stamped past an idle co-tenant's cursor never waits
  // out the gate's stall grace. Every parked instance re-announces its own
  // clock before warm returns. Contract: warm must not run concurrently
  // with invokes or load drivers on the same gateway — a parked instance
  // has promised to send nothing.
  Status warm(const std::string& function);

  // Destroys every instance's OpenCL context (end of experiment).
  void shutdown_instances();

 private:
  struct Breaker {
    unsigned consecutive_failures = 0;
    bool open = false;
    vt::Time opened_at;  // cooldown anchor (modeled time)
  };

  void on_event(const cluster::WatchEvent& event);

  cluster::Cluster* cluster_;
  BindingResolver resolver_;
  GatewayPolicy policy_;

  mutable std::mutex mutex_;
  std::map<std::string, FunctionConfig> configs_;
  // pod name -> instance
  std::map<std::string, std::shared_ptr<FunctionInstance>> pods_;
  std::map<std::string, std::size_t> round_robin_;
  std::map<std::string, Breaker> breakers_;
};

}  // namespace bf::faas
