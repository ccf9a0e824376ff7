// The central scheduler of a Device Manager.
//
// The paper's Device Manager serializes every task through one modeled-FIFO
// queue (§III-B) — the known bottleneck behind the Table III/IV degradation
// at high load. One queue, kept in gate order (ready stamp, client, seq),
// serves every policy; the policy only decides which *eligible* task leaves
// it (docs/SCHEDULING.md):
//
//  * kFifo         — the paper's modeled FIFO: the head, conservatively gated
//                    (vt::Gate). The default.
//  * kWeightedFair — per-tenant weighted fair queueing on client-keyed
//                    virtual finish tags, so a tenant's share of board passes
//                    tracks its configured weight under contention.
//  * kDeadline     — earliest-deadline-first on the task deadline the client
//                    derived from its CallOptions timeout; tasks without a
//                    deadline sort behind deadlined work, in gate order.
//  * kBatching     — the head plus compatible same-kernel small launches,
//                    handed to the worker as one batch that the board
//                    executes as a single pass (one launch overhead).
//
// A task is eligible once it has arrived by the time the board frees:
// ready <= max(earliest queued ready, board_free). The gate guarantees that
// set is complete before the pop decides, so every policy is byte-
// deterministic and work-conserving. Only the Device Manager pops a
// scheduler (tools/check_api.sh enforces this outside src/devmgr/).
#pragma once

#include <condition_variable>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "devmgr/task.h"
#include "vt/gate.h"
#include "vt/time.h"

namespace bf::devmgr {

enum class SchedulerPolicy { kFifo, kWeightedFair, kDeadline, kBatching };

[[nodiscard]] std::string_view to_string(SchedulerPolicy policy);

// kBatching: a task is batchable only if its transfers move at most this
// many bytes over PCIe — batching amortizes the fixed launch overhead of
// *small* launches; a huge transfer would just delay the whole pass.
inline constexpr std::uint64_t kBatchSmallBytes = 4ULL * 1024 * 1024;

struct SchedulerConfig {
  SchedulerPolicy policy = SchedulerPolicy::kFifo;

  // kWeightedFair: client_id (pod name) -> weight; missing clients weigh 1.
  // A tenant with twice the weight gets twice the board passes when both
  // are backlogged.
  std::map<std::string, double> weights;

  // kBatching: at most max_batch tasks per board pass.
  std::size_t max_batch = 4;
};

// Why a pop returned the way it did.
enum class PopReason {
  kSafe,          // conservatively gated: no client can still emit earlier
  kStallFallback, // gate stall-grace expired; best-effort (arrival) order
  kShutdownDrain, // gate shut down: draining so waiters are not stranded
  kClosedDrained, // scheduler closed and empty: the worker should exit
};

struct PopResult {
  // The task to execute; nullopt iff the scheduler is closed and drained.
  std::optional<Task> task;
  // kSafe pops are in strict policy order over every task eligible at the
  // pop; the others are best-effort.
  PopReason reason = PopReason::kSafe;
  // kBatching only: further tasks coalesced with *task into one board pass,
  // in gate order. Empty under every other policy.
  std::vector<Task> batch;
};

// Single-consumer scheduling queue between dispatcher threads (push) and the
// Device Manager's worker (pop_next_safe). Thread safe; push/close/cancel
// serialize on an internal mutex, so a push racing close() either fully
// succeeds (the task will be drained) or is rejected with kUnavailable.
class Scheduler {
 public:
  explicit Scheduler(SchedulerConfig config = {});

  // Enqueues a task. After close() every push is rejected deterministically
  // with kUnavailable — the task is NOT silently queued or dropped, and the
  // caller must fail the task's events so clients observe a terminal status.
  [[nodiscard]] Status push(Task task);

  // Blocks until the policy's next task is safe to execute, or the
  // scheduler is closed and drained. `board_free` is when the board finishes
  // its current work; a reordering policy waits on the gate up to it and
  // chooses among the tasks that have arrived by then. kFifo ignores it.
  // Once the gate is shut down, pops drain without waiting. Single-consumer.
  [[nodiscard]] PopResult pop_next_safe(vt::Gate& gate,
                                        vt::Time board_free = vt::Time::zero());

  // Removes every still-queued task of `session_id` and returns them so the
  // caller can fail their waiters (program waiters, per-op events). Tasks
  // already handed to the worker are not recalled.
  [[nodiscard]] std::vector<Task> cancel_session(std::uint64_t session_id);

  void close();

  [[nodiscard]] std::size_t size() const;

 private:
  // A queued task plus its WFQ virtual finish tag, assigned when the task
  // first becomes eligible. The tag is not part of the gate order.
  struct Entry {
    Task task;
    mutable std::optional<double> finish_tag;
  };
  struct GateOrder {
    bool operator()(const Entry& a, const Entry& b) const;
  };
  using Entries = std::multiset<Entry, GateOrder>;

  // Moves the policy's choice among the tasks stamped <= `limit` into
  // `out`. Requires mutex_ held and a non-empty queue.
  void take_locked(vt::Time limit, PopResult& out);
  Entries::iterator pick_wfq_locked(Entries::iterator end);
  void add_companions_locked(const Task& head, vt::Time limit,
                             std::vector<Task>& batch);

  const SchedulerConfig config_;
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  Entries entries_;
  bool closed_ = false;
  double virtual_now_ = 0.0;                   // WFQ: last served finish tag
  std::map<std::string, double> last_finish_;  // WFQ: client -> last tag
};

}  // namespace bf::devmgr
