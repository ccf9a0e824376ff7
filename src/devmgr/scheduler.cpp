#include "devmgr/scheduler.h"

#include <algorithm>
#include <utility>

namespace bf::devmgr {

std::string_view to_string(SchedulerPolicy policy) {
  switch (policy) {
    case SchedulerPolicy::kFifo: return "fifo";
    case SchedulerPolicy::kWeightedFair: return "wfq";
    case SchedulerPolicy::kDeadline: return "edf";
    case SchedulerPolicy::kBatching: return "batch";
  }
  return "?";
}

// The paper's modeled-FIFO order. Equal modeled stamps break ties
// deterministically by client (pod name), never by real arrival order —
// run-to-run reproducibility depends on it. seq keeps one client's
// equal-stamp tasks in submission order.
bool Scheduler::GateOrder::operator()(const Entry& a, const Entry& b) const {
  if (a.task.ready != b.task.ready) return a.task.ready < b.task.ready;
  if (a.task.client_id != b.task.client_id) {
    return a.task.client_id < b.task.client_id;
  }
  return a.task.seq < b.task.seq;
}

Scheduler::Scheduler(SchedulerConfig config) : config_(std::move(config)) {}

Status Scheduler::push(Task task) {
  {
    std::lock_guard lock(mutex_);
    if (closed_) {
      return Unavailable("scheduler closed");
    }
    entries_.insert(Entry{std::move(task), std::nullopt});
  }
  // Exactly one consumer (the manager's worker thread) ever blocks in
  // pop_next_safe, so one wake suffices; close() keeps notify_all for the
  // shutdown broadcast.
  cv_.notify_one();
  return Status::Ok();
}

PopResult Scheduler::pop_next_safe(vt::Gate& gate, vt::Time board_free) {
  if (config_.policy == SchedulerPolicy::kFifo) board_free = vt::Time::zero();
  std::unique_lock lock(mutex_);
  for (;;) {
    cv_.wait(lock, [&] { return closed_ || !entries_.empty(); });
    if (entries_.empty()) {  // closed and drained
      PopResult out;
      out.reason = PopReason::kClosedDrained;
      return out;
    }
    // Conservative gate: once it clears the wait stamp, no client can still
    // emit a task stamped earlier, so every eligible task is queued.
    const vt::Time stamp = vt::max(entries_.begin()->task.ready, board_free);
    lock.unlock();
    bool fallback = false;
    const bool safe = gate.wait_safe(stamp, &fallback);
    lock.lock();
    // cancel_session may have emptied the queue during the wait; the worker
    // must keep waiting for a push or close(), even after a gate shutdown.
    if (entries_.empty()) continue;
    PopResult out;
    out.reason = !safe     ? PopReason::kShutdownDrain
                 : fallback ? PopReason::kStallFallback
                            : PopReason::kSafe;
    // The limit comes from the queue as it is after the wait: a task stamped
    // below the pre-wait head may have landed meanwhile.
    take_locked(vt::max(entries_.begin()->task.ready, board_free), out);
    return out;
  }
}

void Scheduler::take_locked(vt::Time limit, PopResult& out) {
  // The eligible tasks (ready <= limit) are a prefix of the gate order.
  auto eligible_end = [&] {
    return std::find_if(entries_.begin(), entries_.end(),
                        [&](const Entry& e) { return e.task.ready > limit; });
  };
  auto chosen = entries_.begin();
  switch (config_.policy) {
    case SchedulerPolicy::kFifo:
    case SchedulerPolicy::kBatching:
      break;
    case SchedulerPolicy::kWeightedFair:
      chosen = pick_wfq_locked(eligible_end());
      break;
    case SchedulerPolicy::kDeadline:
      chosen = std::min_element(entries_.begin(), eligible_end(),
                                [](const Entry& a, const Entry& b) {
                                  return a.task.deadline < b.task.deadline;
                                });
      break;
  }
  out.task = std::move(entries_.extract(chosen).value().task);
  if (config_.policy == SchedulerPolicy::kBatching) {
    add_companions_locked(*out.task, limit, out.batch);
  }
}

Scheduler::Entries::iterator Scheduler::pick_wfq_locked(
    Entries::iterator end) {
  // Start-time fair queueing with unit task cost: a task's finish tag
  // advances its client's virtual stream by 1/weight, anchored at the
  // virtual time so an idle client re-enters at "now" instead of burning
  // accumulated credit. Tags are assigned in gate order as tasks become
  // eligible, so they do not depend on when the pushes happened.
  auto best = entries_.begin();
  for (auto it = entries_.begin(); it != end; ++it) {
    if (!it->finish_tag) {
      auto weight_it = config_.weights.find(it->task.client_id);
      const double weight = weight_it != config_.weights.end() &&
                                    weight_it->second > 0.0
                                ? weight_it->second
                                : 1.0;
      double& last = last_finish_[it->task.client_id];
      last = std::max(last, virtual_now_) + 1.0 / weight;
      it->finish_tag = last;
    }
    if (*it->finish_tag < *best->finish_tag) best = it;  // ties: gate order
  }
  virtual_now_ = std::max(virtual_now_, *best->finish_tag);
  return best;
}

void Scheduler::add_companions_locked(const Task& head, vt::Time limit,
                                      std::vector<Task>& batch) {
  if (!head.batchable) return;
  // Scan the eligible prefix in gate order. A client whose next task is
  // skipped is blocked for the rest of the scan: pulling a later task of
  // that client past the skipped one would invert its completion order. A
  // program task is a barrier — nothing batches across a reconfiguration.
  std::set<std::string> blocked;
  for (auto it = entries_.begin(); it != entries_.end() &&
                                   it->task.ready <= limit &&
                                   batch.size() + 1 < config_.max_batch;) {
    const Task& candidate = it->task;
    if (candidate.is_program) break;
    if (candidate.batchable && candidate.batch_key == head.batch_key &&
        !blocked.contains(candidate.client_id)) {
      batch.push_back(std::move(entries_.extract(it++).value().task));
    } else {
      blocked.insert(candidate.client_id);
      ++it;
    }
  }
}

std::vector<Task> Scheduler::cancel_session(std::uint64_t session_id) {
  std::vector<Task> cancelled;
  std::lock_guard lock(mutex_);
  for (auto it = entries_.begin(); it != entries_.end();) {
    if (it->task.session_id == session_id) {
      cancelled.push_back(std::move(entries_.extract(it++).value().task));
    } else {
      ++it;
    }
  }
  return cancelled;
}

void Scheduler::close() {
  {
    std::lock_guard lock(mutex_);
    closed_ = true;
  }
  cv_.notify_all();
}

std::size_t Scheduler::size() const {
  std::lock_guard lock(mutex_);
  return entries_.size();
}

}  // namespace bf::devmgr
