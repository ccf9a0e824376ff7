#include "faas/function.h"

#include "common/log.h"

namespace bf::faas {

FunctionInstance::FunctionInstance(cluster::Pod pod,
                                   const FunctionConfig& config,
                                   BindingResolver resolver,
                                   sim::NodeProfile node)
    : pod_(std::move(pod)),
      config_(config),
      resolver_(std::move(resolver)),
      node_(std::move(node)),
      session_(pod_.spec.name),
      workload_(config_.make_workload()) {
  BF_CHECK(workload_ != nullptr);
}

FunctionInstance::~FunctionInstance() { shutdown(); }

Status FunctionInstance::cold_start_locked() {
  auto binding = resolver_(pod_);
  if (!binding.ok()) return binding.status();
  runtime_ = binding.value().runtime;
  auto context = runtime_->create_context(binding.value().device_id,
                                          session_);
  if (!context.ok()) return context.status();
  context_ = std::move(context.value());
  return workload_->setup(*context_);
}

Result<InvokeResult> FunctionInstance::invoke() {
  std::lock_guard lock(mutex_);
  const vt::Time accepted = session_.now();
  trace::SpanContext root;
  if (trace::enabled()) {
    // Mint the request's root context at the gateway (paper's FaaS front
    // door) and park it on the session so the remote library stamps every
    // downstream call with it.
    root = trace::mint_trace(pod_.spec.name, ++trace_seq_, accepted);
    session_.set_trace_context(root);
  }
  auto result = invoke_locked(root, accepted);
  if (root.is_valid()) {
    session_.set_trace_context({});
    // The root "request" span is recorded for failures too — a trace whose
    // request span has no task children is how aborted work shows up.
    trace::record(trace::Span{pod_.spec.name, "request", accepted,
                              session_.now(), root.trace_id, root.span_id,
                              0});
  }
  return result;
}

Result<InvokeResult> FunctionInstance::invoke_locked(
    const trace::SpanContext& root, vt::Time accepted) {
  // Gateway hop + HTTP handling on the function side.
  session_.compute(config_.gateway_overhead);
  const vt::Time gateway_done = session_.now();
  session_.compute(config_.handler_overhead);
  if (root.is_valid()) {
    const trace::SpanContext gw = root.child(trace::salt::kGateway);
    trace::record(trace::Span{pod_.spec.name, "gateway", accepted,
                              gateway_done, gw.trace_id, gw.span_id,
                              root.span_id});
    const trace::SpanContext hd = root.child(trace::salt::kHandler);
    trace::record(trace::Span{pod_.spec.name, "handler", gateway_done,
                              session_.now(), hd.trace_id, hd.span_id,
                              root.span_id});
  }
  const vt::Time start = session_.now();

  Status handled;
  if (config_.mode == ExecutionMode::kForkPerRequest) {
    // Classic watchdog: fork a handler, attach a fresh OpenCL context, set
    // up, serve, tear down.
    session_.compute(node_.fork_request_overhead);
    if (root.is_valid()) {
      const trace::SpanContext fk = root.child(trace::salt::kFork);
      trace::record(trace::Span{pod_.spec.name, "fork", start,
                                session_.now(), fk.trace_id, fk.span_id,
                                root.span_id});
    }
    auto binding = resolver_(pod_);
    if (!binding.ok()) {
      ++errors_;
      return binding.status();
    }
    auto context = binding.value().runtime->create_context(
        binding.value().device_id, session_);
    if (!context.ok()) {
      ++errors_;
      return context.status();
    }
    handled = workload_->setup(*context.value());
    if (handled.ok()) handled = workload_->handle_request(*context.value());
    workload_->teardown();
  } else {
    if (context_ == nullptr) {
      if (Status s = cold_start_locked(); !s.ok()) {
        ++errors_;
        return s;
      }
    }
    handled = workload_->handle_request(*context_);
  }

  if (!handled.ok()) {
    ++errors_;
    return handled;
  }
  ++served_;
  InvokeResult out;
  out.latency = session_.now() - start;
  out.completed_at = session_.now();
  out.e2e_latency = session_.now() - accepted;
  out.trace_id = root.trace_id;
  return out;
}

Status FunctionInstance::warm() {
  std::lock_guard lock(mutex_);
  if (config_.mode != ExecutionMode::kPersistent || context_ != nullptr) {
    return Status::Ok();
  }
  return cold_start_locked();
}

void FunctionInstance::park() {
  std::lock_guard lock(mutex_);
  if (context_ != nullptr) context_->announce_idle(vt::Time::infinite());
}

void FunctionInstance::unpark() {
  std::lock_guard lock(mutex_);
  if (context_ != nullptr) context_->announce_idle(session_.now());
}

void FunctionInstance::advance_clock_to(vt::Time t) {
  std::lock_guard lock(mutex_);
  session_.clock().advance_to(t);
}

vt::Time FunctionInstance::now() {
  std::lock_guard lock(mutex_);
  return session_.now();
}

std::uint64_t FunctionInstance::requests_served() const { return served_; }

std::uint64_t FunctionInstance::errors() const { return errors_; }

bool FunctionInstance::cold() const { return context_ == nullptr; }

void FunctionInstance::shutdown() {
  std::lock_guard lock(mutex_);
  if (context_ != nullptr || workload_ != nullptr) {
    if (workload_ != nullptr) workload_->teardown();
    context_.reset();
  }
}

}  // namespace bf::faas
