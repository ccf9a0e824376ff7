#include "faas/gateway.h"

#include <algorithm>

#include "common/log.h"

namespace bf::faas {
namespace {

// The gateway offers at-least-once semantics, so its retryable set is wider
// than the net layer's transport-transient pair: resource exhaustion (a shm
// slot denied under pressure) and mid-task aborts are also worth another
// attempt — the request itself is re-submittable even when the underlying
// RPC was not. Genuine caller errors (invalid argument, not found) and
// terminal states still fail immediately.
bool is_invoke_retryable(ErrorCode code) {
  return is_retryable(code) || code == ErrorCode::kResourceExhausted ||
         code == ErrorCode::kAborted;
}

// Gateway::warm's parking scope: parks the warm instances it is given and
// unparks all of them, in parking order, when the warm returns.
class ParkedInstances {
 public:
  ParkedInstances() = default;
  ParkedInstances(const ParkedInstances&) = delete;
  ParkedInstances& operator=(const ParkedInstances&) = delete;
  ~ParkedInstances() {
    for (const auto& instance : parked_) instance->unpark();
  }

  void park(const std::shared_ptr<FunctionInstance>& instance) {
    if (instance->cold()) return;  // no session to park
    instance->park();
    parked_.push_back(instance);
  }

 private:
  std::vector<std::shared_ptr<FunctionInstance>> parked_;
};

}  // namespace

Gateway::Gateway(cluster::Cluster* cluster, BindingResolver resolver,
                 GatewayPolicy policy)
    : cluster_(cluster), resolver_(std::move(resolver)), policy_(policy) {
  BF_CHECK(cluster_ != nullptr);
  BF_CHECK(resolver_ != nullptr);
  cluster_->add_watcher(
      [this](const cluster::WatchEvent& event) { on_event(event); });
}

Status Gateway::deploy(FunctionConfig config, unsigned replicas,
                       const std::string& node_pin) {
  if (replicas == 0) return InvalidArgument("need at least one replica");
  const std::string function = config.name;
  {
    std::lock_guard lock(mutex_);
    if (configs_.contains(function)) {
      return AlreadyExists("function '" + function + "' already deployed");
    }
    configs_.emplace(function, std::move(config));
  }
  for (unsigned i = 0; i < replicas; ++i) {
    cluster::PodSpec spec;
    spec.name = function + "-" + std::to_string(i);
    spec.function = function;
    spec.labels["faas_function"] = function;
    spec.node = node_pin;
    auto pod = cluster_->create_pod(std::move(spec));
    if (!pod.ok()) {
      return Status(pod.status().code(),
                    "deploying '" + function + "': " +
                        pod.status().message());
    }
  }
  return Status::Ok();
}

Status Gateway::remove(const std::string& function) {
  {
    std::lock_guard lock(mutex_);
    if (configs_.erase(function) == 0) {
      return NotFound("function '" + function + "' not deployed");
    }
  }
  for (const cluster::Pod& pod : cluster_->pods_of_function(function)) {
    (void)cluster_->delete_pod(pod.spec.name);
  }
  return Status::Ok();
}

Status Gateway::scale(const std::string& function, unsigned replicas) {
  std::vector<cluster::Pod> pods = cluster_->pods_of_function(function);
  {
    std::lock_guard lock(mutex_);
    if (!configs_.contains(function)) {
      return NotFound("function '" + function + "' not deployed");
    }
  }
  if (pods.size() < replicas) {
    // Find unused indices for the new pods.
    unsigned index = 0;
    while (pods.size() < replicas) {
      cluster::PodSpec spec;
      spec.name = function + "-" + std::to_string(index++);
      if (cluster_->get_pod(spec.name).has_value()) continue;
      spec.function = function;
      spec.labels["faas_function"] = function;
      auto pod = cluster_->create_pod(std::move(spec));
      if (!pod.ok()) return pod.status();
      pods.push_back(pod.value());
    }
  } else {
    while (pods.size() > replicas) {
      (void)cluster_->delete_pod(pods.back().spec.name);
      pods.pop_back();
    }
  }
  return Status::Ok();
}

Result<InvokeResult> Gateway::invoke(const std::string& function) {
  std::vector<std::shared_ptr<FunctionInstance>> candidates;
  std::size_t start = 0;
  {
    std::lock_guard lock(mutex_);
    for (const auto& [pod_name, instance] : pods_) {
      if (instance->function() == function) candidates.push_back(instance);
    }
    if (candidates.empty()) {
      return NotFound("no running instance of '" + function + "'");
    }
    start = round_robin_[function]++;
  }

  // Circuit breaker: shed the request without touching a replica while the
  // circuit is open, except for one half-open trial after the cooldown.
  // now() is read outside mutex_ (instances take their own lock).
  if (policy_.breaker_threshold > 0) {
    vt::Time now = vt::Time::zero();
    for (const auto& candidate : candidates) {
      now = vt::max(now, candidate->now());
    }
    std::lock_guard lock(mutex_);
    Breaker& breaker = breakers_[function];
    if (breaker.open &&
        now < breaker.opened_at + policy_.breaker_cooldown) {
      return Unavailable("circuit open for function '" + function +
                         "', request shed (HTTP 503)");
    }
  }

  const unsigned attempts = std::max(1u, policy_.max_invoke_attempts);
  Status last_error;
  std::shared_ptr<FunctionInstance> target;
  for (unsigned attempt = 0; attempt < attempts; ++attempt) {
    target = candidates[(start + attempt) % candidates.size()];
    if (attempt > 0 && policy_.retry_backoff.ns() > 0) {
      target->advance_clock_to(target->now() + policy_.retry_backoff);
    }
    auto result = target->invoke();
    if (result.ok()) {
      if (policy_.breaker_threshold > 0) {
        std::lock_guard lock(mutex_);
        breakers_[function] = Breaker{};  // close + reset on any success
      }
      return result;
    }
    last_error = result.status();
    if (!is_invoke_retryable(last_error.code())) break;
    if (attempt + 1 < attempts) {
      BF_LOG_WARN("faas") << "invoke of '" << function << "' failed ("
                          << last_error.to_string() << "), retrying on next "
                          << "replica (attempt " << attempt + 2 << "/"
                          << attempts << ")";
    }
  }

  if (policy_.breaker_threshold > 0) {
    const vt::Time now = target->now();
    std::lock_guard lock(mutex_);
    Breaker& breaker = breakers_[function];
    ++breaker.consecutive_failures;
    if (breaker.open) {
      breaker.opened_at = now;  // failed half-open trial: re-arm cooldown
    } else if (breaker.consecutive_failures >= policy_.breaker_threshold) {
      breaker.open = true;
      breaker.opened_at = now;
      BF_LOG_WARN("faas") << "circuit opened for function '" << function
                          << "' after " << breaker.consecutive_failures
                          << " consecutive failures";
    }
  }
  return last_error;
}

bool Gateway::is_circuit_open(const std::string& function) const {
  std::lock_guard lock(mutex_);
  auto it = breakers_.find(function);
  return it != breakers_.end() && it->second.open;
}

std::shared_ptr<FunctionInstance> Gateway::instance(
    const std::string& function, std::size_t replica) const {
  std::lock_guard lock(mutex_);
  std::vector<std::shared_ptr<FunctionInstance>> candidates;
  for (const auto& [pod_name, instance] : pods_) {
    if (instance->function() == function) candidates.push_back(instance);
  }
  if (replica >= candidates.size()) return nullptr;
  return candidates[replica];
}

std::vector<std::shared_ptr<FunctionInstance>> Gateway::instances(
    const std::string& function) const {
  std::lock_guard lock(mutex_);
  std::vector<std::shared_ptr<FunctionInstance>> out;
  for (const auto& [pod_name, instance] : pods_) {
    if (instance->function() == function) out.push_back(instance);
  }
  return out;
}

std::size_t Gateway::instance_count() const {
  std::lock_guard lock(mutex_);
  return pods_.size();
}

Status Gateway::warm(const std::string& function) {
  std::vector<std::shared_ptr<FunctionInstance>> all;
  {
    std::lock_guard lock(mutex_);
    for (const auto& [pod_name, instance] : pods_) all.push_back(instance);
  }
  // Park every instance that is already warm, then each replica as soon as
  // its own cold start is done.
  ParkedInstances parked;
  for (const auto& instance : all) parked.park(instance);
  for (const auto& instance : all) {
    if (instance->function() != function || !instance->cold()) continue;
    if (Status s = instance->warm(); !s.ok()) return s;
    parked.park(instance);
  }
  return Status::Ok();
}

void Gateway::shutdown_instances() {
  std::map<std::string, std::shared_ptr<FunctionInstance>> pods;
  {
    std::lock_guard lock(mutex_);
    pods = pods_;
  }
  for (auto& [name, instance] : pods) instance->shutdown();
}

void Gateway::on_event(const cluster::WatchEvent& event) {
  std::lock_guard lock(mutex_);
  const std::string& pod_name = event.pod.spec.name;
  if (event.type == cluster::WatchEvent::Type::kDeleted) {
    auto it = pods_.find(pod_name);
    if (it != pods_.end()) {
      it->second->shutdown();
      pods_.erase(it);
    }
    return;
  }
  auto config = configs_.find(event.pod.spec.function);
  if (config == configs_.end()) return;  // not a faas pod
  const cluster::NodeSpec* node = cluster_->find_node(event.pod.spec.node);
  if (node == nullptr) {
    BF_LOG_WARN("faas") << "pod " << pod_name << " on unknown node '"
                        << event.pod.spec.node << "'";
    return;
  }
  pods_[pod_name] = std::make_shared<FunctionInstance>(
      event.pod, config->second, resolver_, node->profile);
}

}  // namespace bf::faas
