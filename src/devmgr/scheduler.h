// The central scheduler of a Device Manager.
//
// The paper's Device Manager serializes every task through one modeled-FIFO
// queue (§III-B) — the known bottleneck behind the Table III/IV degradation
// at high load. The queue is kept in gate order (ready stamp, client, seq)
// and one value, SchedulerConfig::max_batch, selects how it drains
// (docs/SCHEDULING.md):
//
//  * max_batch == 1 — the paper's modeled FIFO: the head, conservatively
//                     gated (vt::Gate). The default.
//  * max_batch > 1  — the head plus up to max_batch - 1 compatible
//                     same-kernel small launches, handed to the worker as
//                     one batch that the board executes as a single pass
//                     (one launch overhead).
//
// A batching pop chooses among the tasks that have arrived by the time the
// board frees: ready <= max(earliest queued ready, board_free). The gate
// guarantees that set is complete before the pop decides, so the drain is
// byte-deterministic and work-conserving. Only the Device Manager pops a
// scheduler (tools/check_api.sh enforces this outside src/devmgr/).
#pragma once

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <optional>
#include <set>
#include <vector>

#include "devmgr/task.h"
#include "vt/gate.h"
#include "vt/time.h"

namespace bf::devmgr {

// A task is batchable only if its transfers move at most this many bytes
// over PCIe — batching amortizes the fixed launch overhead of *small*
// launches; a huge transfer would just delay the whole pass.
inline constexpr std::uint64_t kBatchSmallBytes = 4ULL * 1024 * 1024;

struct SchedulerConfig {
  // At most max_batch tasks per board pass. 1 is the paper's FIFO.
  std::size_t max_batch = 1;
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
  // kSafe pops are in strict gate order over every task eligible at the
  // pop; the others are best-effort.
  PopReason reason = PopReason::kSafe;
  // max_batch > 1 only: further tasks coalesced with *task into one board
  // pass, in gate order. Always empty under FIFO.
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

  // Blocks until the next task is safe to execute, or the scheduler is
  // closed and drained. `board_free` is when the board finishes its current
  // work; a batching pop waits on the gate up to it and chooses among the
  // tasks that have arrived by then. FIFO (max_batch == 1) ignores it.
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
  struct GateOrder {
    bool operator()(const Task& a, const Task& b) const;
  };

  // Moves up to max_batch - 1 companions of `head` among the tasks stamped
  // <= `limit` into `batch`. Requires mutex_ held.
  void add_companions_locked(const Task& head, vt::Time limit,
                             std::vector<Task>& batch);

  const SchedulerConfig config_;
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::multiset<Task, GateOrder> tasks_;
  bool closed_ = false;
};

}  // namespace bf::devmgr
