#include "devmgr/scheduler.h"

#include <utility>

namespace bf::devmgr {

// The paper's modeled-FIFO order. Equal modeled stamps break ties
// deterministically by client (pod name), never by real arrival order —
// run-to-run reproducibility depends on it. seq keeps one client's
// equal-stamp tasks in submission order.
bool Scheduler::GateOrder::operator()(const Task& a, const Task& b) const {
  if (a.ready != b.ready) return a.ready < b.ready;
  if (a.client_id != b.client_id) return a.client_id < b.client_id;
  return a.seq < b.seq;
}

Scheduler::Scheduler(SchedulerConfig config) : config_(std::move(config)) {}

Status Scheduler::push(Task task) {
  {
    std::lock_guard lock(mutex_);
    if (closed_) {
      return Unavailable("scheduler closed");
    }
    tasks_.insert(std::move(task));
  }
  // Exactly one consumer (the manager's worker thread) ever blocks in
  // pop_next_safe, so one wake suffices; close() keeps notify_all for the
  // shutdown broadcast.
  cv_.notify_one();
  return Status::Ok();
}

PopResult Scheduler::pop_next_safe(vt::Gate& gate, vt::Time board_free) {
  if (config_.max_batch <= 1) board_free = vt::Time::zero();
  std::unique_lock lock(mutex_);
  for (;;) {
    cv_.wait(lock, [&] { return closed_ || !tasks_.empty(); });
    if (tasks_.empty()) {  // closed and drained
      PopResult out;
      out.reason = PopReason::kClosedDrained;
      return out;
    }
    // Conservative gate: once it clears the wait stamp, no client can still
    // emit a task stamped earlier, so every eligible task is queued.
    const vt::Time stamp = vt::max(tasks_.begin()->ready, board_free);
    lock.unlock();
    bool fallback = false;
    const bool safe = gate.wait_safe(stamp, &fallback);
    lock.lock();
    // cancel_session may have emptied the queue during the wait; the worker
    // must keep waiting for a push or close(), even after a gate shutdown.
    if (tasks_.empty()) continue;
    PopResult out;
    out.reason = !safe     ? PopReason::kShutdownDrain
                 : fallback ? PopReason::kStallFallback
                            : PopReason::kSafe;
    out.task = std::move(tasks_.extract(tasks_.begin()).value());
    if (config_.max_batch > 1) {
      // The limit uses the head popped after the wait, not the stamp waited
      // on: a task stamped below the pre-wait head may have landed meanwhile.
      add_companions_locked(*out.task,
                            vt::max(out.task->ready, board_free), out.batch);
    }
    return out;
  }
}

void Scheduler::add_companions_locked(const Task& head, vt::Time limit,
                                      std::vector<Task>& batch) {
  if (!head.batchable) return;
  // Scan the eligible prefix in gate order. A client whose next task is
  // skipped is blocked for the rest of the scan: pulling a later task of
  // that client past the skipped one would invert its completion order. A
  // program task is a barrier — nothing batches across a reconfiguration.
  std::set<std::string> blocked;
  for (auto it = tasks_.begin(); it != tasks_.end() && it->ready <= limit &&
                                 batch.size() + 1 < config_.max_batch;) {
    const Task& candidate = *it;
    if (candidate.is_program) break;
    if (candidate.batchable && candidate.batch_key == head.batch_key &&
        !blocked.contains(candidate.client_id)) {
      batch.push_back(std::move(tasks_.extract(it++).value()));
    } else {
      blocked.insert(candidate.client_id);
      ++it;
    }
  }
}

std::vector<Task> Scheduler::cancel_session(std::uint64_t session_id) {
  std::vector<Task> cancelled;
  std::lock_guard lock(mutex_);
  for (auto it = tasks_.begin(); it != tasks_.end();) {
    if (it->session_id == session_id) {
      cancelled.push_back(std::move(tasks_.extract(it++).value()));
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
  return tasks_.size();
}

}  // namespace bf::devmgr
