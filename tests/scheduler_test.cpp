// bf::devmgr::Scheduler: the central queue behind the Device Manager,
// exercised directly (unit level).
//
// The FifoScheduler section is the golden behavior contract inherited from
// the historical TaskQueue: every ordering, gating, close and drain property
// the old queue guaranteed must hold byte-identically for the default
// max_batch of 1. The remaining sections cover batching (max_batch > 1):
// coalescing/ordering/cancel semantics and the eligibility rule that keeps
// it deterministic and work-conserving. The last section drives a batching
// DeviceManager end to end, so the worker's batched execution path runs
// under the same label (and the same sanitizer sweep) as the scheduler.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "devmgr/device_manager.h"
#include "devmgr/scheduler.h"
#include "fault/injector.h"
#include "remote/remote_runtime.h"
#include "shm/namespace.h"
#include "sim/bitstream.h"
#include "sim/board.h"
#include "trace/chrome_trace.h"

namespace bf::devmgr {
namespace {

Task make_task(std::uint64_t seq, const std::string& client, vt::Time ready) {
  Task task;
  task.seq = seq;
  task.client_id = client;
  task.ready = ready;
  Operation op;
  op.kind = Operation::Kind::kFinish;
  op.op_id = seq;
  task.ops.push_back(op);
  return task;
}

Task make_batchable(std::uint64_t seq, const std::string& client,
                    vt::Time ready, const std::string& key,
                    std::uint64_t session_id = 0) {
  Task task = make_task(seq, client, ready);
  task.session_id = session_id;
  task.batchable = true;
  task.batch_key = key;
  task.ops[0].kind = Operation::Kind::kKernel;
  return task;
}

SchedulerConfig batching(std::size_t max_batch = 4) {
  SchedulerConfig config;
  config.max_batch = max_batch;
  return config;
}

// A board busy past every stamp the batching tests queue: every queued task
// is eligible at each pop.
constexpr vt::Time kBoardBusy = vt::Time::seconds(1);

// Convenience for tests where the pop cannot block: asserts a task came out.
Task pop_one(Scheduler& queue, vt::Gate& gate,
             vt::Time board_free = vt::Time::zero()) {
  PopResult result = queue.pop_next_safe(gate, board_free);
  EXPECT_TRUE(result.task.has_value());
  return std::move(*result.task);
}

// ---- FifoScheduler: the TaskQueue golden behavior contract -------------------

TEST(FifoScheduler, PopsInReadyOrderNotPushOrder) {
  Scheduler queue;
  vt::Gate gate;  // no sources: always safe
  ASSERT_TRUE(queue.push(make_task(1, "b", vt::Time::millis(30))).ok());
  ASSERT_TRUE(queue.push(make_task(2, "a", vt::Time::millis(10))).ok());
  ASSERT_TRUE(queue.push(make_task(3, "c", vt::Time::millis(20))).ok());
  EXPECT_EQ(pop_one(queue, gate).ready, vt::Time::millis(10));
  EXPECT_EQ(pop_one(queue, gate).ready, vt::Time::millis(20));
  EXPECT_EQ(pop_one(queue, gate).ready, vt::Time::millis(30));
}

TEST(FifoScheduler, EqualStampsBreakTiesByClientThenSeq) {
  Scheduler queue;
  vt::Gate gate;
  ASSERT_TRUE(queue.push(make_task(5, "zeta", vt::Time::millis(10))).ok());
  ASSERT_TRUE(queue.push(make_task(9, "alpha", vt::Time::millis(10))).ok());
  ASSERT_TRUE(queue.push(make_task(7, "alpha", vt::Time::millis(10))).ok());
  Task first = pop_one(queue, gate);
  Task second = pop_one(queue, gate);
  Task third = pop_one(queue, gate);
  EXPECT_EQ(first.client_id, "alpha");
  EXPECT_EQ(first.seq, 7u);
  EXPECT_EQ(second.client_id, "alpha");
  EXPECT_EQ(second.seq, 9u);
  EXPECT_EQ(third.client_id, "zeta");
}

TEST(FifoScheduler, SafePopsReportSafeReason) {
  Scheduler queue;
  vt::Gate gate;
  ASSERT_TRUE(queue.push(make_task(1, "a", vt::Time::millis(1))).ok());
  PopResult result = queue.pop_next_safe(gate);
  ASSERT_TRUE(result.task.has_value());
  EXPECT_EQ(result.reason, PopReason::kSafe);
  EXPECT_TRUE(result.batch.empty());  // only max_batch > 1 ever fills this
}

TEST(FifoScheduler, PopWaitsForGateSafety) {
  Scheduler queue;
  vt::Gate gate;
  auto source = gate.register_source(vt::Time::millis(1));
  ASSERT_TRUE(queue.push(make_task(1, "a", vt::Time::millis(100))).ok());
  std::atomic<bool> popped{false};
  std::thread consumer([&] {
    PopResult result = queue.pop_next_safe(gate);
    EXPECT_TRUE(result.task.has_value());
    popped = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_FALSE(popped.load());  // source bound below the task stamp
  source.announce(vt::Time::millis(200));
  consumer.join();
  EXPECT_TRUE(popped.load());
}

TEST(FifoScheduler, EarlierTaskArrivingDuringWaitIsServedFirst) {
  Scheduler queue;
  vt::Gate gate;
  auto source = gate.register_source(vt::Time::millis(1));
  ASSERT_TRUE(queue.push(make_task(1, "late", vt::Time::millis(100))).ok());
  std::thread producer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_TRUE(queue.push(make_task(2, "early", vt::Time::millis(50))).ok());
    source.announce(vt::Time::millis(300));
  });
  PopResult first = queue.pop_next_safe(gate);
  producer.join();
  ASSERT_TRUE(first.task.has_value());
  EXPECT_EQ(first.task->client_id, "early");
  EXPECT_EQ(pop_one(queue, gate).client_id, "late");
}

TEST(FifoScheduler, CloseDrainsWaiters) {
  Scheduler queue;
  vt::Gate gate;
  std::thread consumer([&] {
    PopResult result = queue.pop_next_safe(gate);
    EXPECT_FALSE(result.task.has_value());
    EXPECT_EQ(result.reason, PopReason::kClosedDrained);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  queue.close();
  consumer.join();
  // Pushes after close are rejected with a deterministic status.
  Status rejected = queue.push(make_task(1, "a", vt::Time::millis(1)));
  EXPECT_EQ(rejected.code(), StatusCode::kUnavailable);
  EXPECT_EQ(queue.size(), 0u);
}

TEST(FifoScheduler, PushAfterCloseAlwaysRejected) {
  Scheduler queue;
  queue.close();
  for (int i = 0; i < 10; ++i) {
    Status status = queue.push(make_task(static_cast<std::uint64_t>(i), "a",
                                          vt::Time::millis(i)));
    EXPECT_EQ(status.code(), StatusCode::kUnavailable);
  }
  EXPECT_EQ(queue.size(), 0u);
}

TEST(FifoScheduler, ConcurrentCloseAndPushNeverLosesAcceptedTasks) {
  // A push racing close() must either be accepted (and then drainable) or
  // rejected with kUnavailable — never silently dropped.
  for (int round = 0; round < 20; ++round) {
    Scheduler queue;
    vt::Gate gate;
    gate.shutdown();  // pops drain without gating
    std::atomic<int> accepted{0};
    std::vector<std::thread> producers;
    for (int p = 0; p < 4; ++p) {
      producers.emplace_back([&, p] {
        for (int i = 0; i < 50; ++i) {
          Status status = queue.push(
              make_task(static_cast<std::uint64_t>(p * 50 + i),
                        "client-" + std::to_string(p), vt::Time::millis(i)));
          if (status.ok()) {
            accepted.fetch_add(1);
          } else {
            EXPECT_EQ(status.code(), StatusCode::kUnavailable);
          }
        }
      });
    }
    std::this_thread::sleep_for(std::chrono::microseconds(50 * round));
    queue.close();
    for (auto& producer : producers) producer.join();
    int drained = 0;
    while (queue.pop_next_safe(gate).task.has_value()) ++drained;
    EXPECT_EQ(drained, accepted.load());
    // After close has been observed by every producer, rejection is sticky.
    EXPECT_EQ(queue.push(make_task(999, "late", vt::Time::zero())).code(),
              StatusCode::kUnavailable);
  }
}

TEST(FifoScheduler, GateShutdownStillDrainsTasks) {
  // ProgramWaiter holders must not be stranded at shutdown.
  Scheduler queue;
  vt::Gate gate;
  ASSERT_TRUE(queue.push(make_task(1, "a", vt::Time::millis(10))).ok());
  gate.shutdown();
  PopResult result = queue.pop_next_safe(gate);
  ASSERT_TRUE(result.task.has_value());
  EXPECT_EQ(result.task->seq, 1u);
  EXPECT_EQ(result.reason, PopReason::kShutdownDrain);
}

TEST(FifoScheduler, GateShutdownAfterCancelWaitsForPushOrClose) {
  // The gate shuts down while the worker waits on it, and cancel_session
  // has emptied the queue meanwhile. The pop must not come back empty
  // before close(): a reconfiguration pushed afterwards has a dispatcher
  // blocked on it, so it must still be drained.
  Scheduler queue;
  vt::Gate gate;
  gate.set_stall_grace(std::chrono::hours(1));
  auto source = gate.register_source(vt::Time::zero());  // holds the gate shut
  Task doomed = make_task(1, "a", vt::Time::millis(10));
  doomed.session_id = 7;
  ASSERT_TRUE(queue.push(doomed).ok());
  PopResult popped;
  std::thread consumer([&] { popped = queue.pop_next_safe(gate); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  ASSERT_EQ(queue.cancel_session(7).size(), 1u);
  gate.shutdown();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  Task program = make_task(2, "b", vt::Time::millis(20));
  program.is_program = true;
  ASSERT_TRUE(queue.push(program).ok());
  consumer.join();
  ASSERT_TRUE(popped.task.has_value());
  EXPECT_EQ(popped.task->seq, 2u);
  EXPECT_EQ(popped.reason, PopReason::kShutdownDrain);
  queue.close();
  EXPECT_EQ(queue.pop_next_safe(gate).reason, PopReason::kClosedDrained);
}

TEST(FifoScheduler, StressManyProducersOrderPreserved) {
  Scheduler queue;
  vt::Gate gate;
  constexpr int kPerProducer = 200;
  std::vector<std::thread> producers;
  for (int p = 0; p < 4; ++p) {
    producers.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        EXPECT_TRUE(queue
                        .push(make_task(
                            static_cast<std::uint64_t>(p * kPerProducer + i),
                            "client-" + std::to_string(p),
                            vt::Time::millis(1 + (i * 7 + p * 3) % 1000)))
                        .ok());
      }
    });
  }
  for (auto& producer : producers) producer.join();
  vt::Time last = vt::Time::zero();
  int count = 0;
  while (queue.size() > 0) {
    Task task = pop_one(queue, gate);
    EXPECT_GE(task.ready, last);
    last = task.ready;
    ++count;
  }
  EXPECT_EQ(count, 4 * kPerProducer);
}

TEST(ProgramWaiter, DeliversStatusAndTime) {
  ProgramWaiter waiter;
  std::thread completer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    waiter.complete(NotFound("nope"), vt::Time::millis(42));
  });
  auto [status, end] = waiter.wait();
  completer.join();
  EXPECT_EQ(status.code(), StatusCode::kNotFound);
  EXPECT_EQ(end, vt::Time::millis(42));
}

// ---- BatchingScheduler: same-kernel coalescing -------------------------------

TEST(BatchingScheduler, CoalescesSameKernelLaunchesUpToMaxBatch) {
  Scheduler queue(batching(4));
  vt::Gate gate;
  for (std::uint64_t i = 0; i < 6; ++i) {
    ASSERT_TRUE(queue
                    .push(make_batchable(i, "c" + std::to_string(i),
                                         vt::Time::millis(1 + i), "mm"))
                    .ok());
  }
  PopResult first = queue.pop_next_safe(gate, kBoardBusy);
  ASSERT_TRUE(first.task.has_value());
  EXPECT_EQ(first.task->seq, 0u);
  ASSERT_EQ(first.batch.size(), 3u);  // head + 3 == max_batch
  EXPECT_EQ(first.batch[0].seq, 1u);
  EXPECT_EQ(first.batch[1].seq, 2u);
  EXPECT_EQ(first.batch[2].seq, 3u);
  PopResult second = queue.pop_next_safe(gate, kBoardBusy);
  ASSERT_TRUE(second.task.has_value());
  EXPECT_EQ(second.task->seq, 4u);
  ASSERT_EQ(second.batch.size(), 1u);
  EXPECT_EQ(second.batch[0].seq, 5u);
  EXPECT_EQ(queue.size(), 0u);
}

TEST(BatchingScheduler, EligibilityLimitBoundsCoalescing) {
  // A companion joins only if it has arrived by the time the board frees:
  // ready <= max(earliest queued ready, board_free).
  for (const bool board_free_late : {false, true}) {
    SCOPED_TRACE(board_free_late ? "board frees at 13 ms" : "at 12 ms");
    Scheduler queue(batching());
    vt::Gate gate;
    ASSERT_TRUE(
        queue.push(make_batchable(1, "a", vt::Time::millis(1), "mm")).ok());
    ASSERT_TRUE(
        queue.push(make_batchable(2, "b", vt::Time::millis(13), "mm")).ok());
    PopResult first = queue.pop_next_safe(
        gate, vt::Time::millis(board_free_late ? 13 : 12));
    ASSERT_TRUE(first.task.has_value());
    EXPECT_EQ(first.task->seq, 1u);
    if (board_free_late) {
      ASSERT_EQ(first.batch.size(), 1u);
      EXPECT_EQ(first.batch[0].seq, 2u);
    } else {
      // 13 ms is past the limit: it waits for its own pass.
      EXPECT_TRUE(first.batch.empty());
      EXPECT_EQ(pop_one(queue, gate, vt::Time::millis(12)).seq, 2u);
    }
    EXPECT_EQ(queue.size(), 0u);
  }
}

TEST(BatchingScheduler, EligibilityLimitIsComputedAfterTheWait) {
  // The pop waits on the gate for the 100 ms head; meanwhile a task stamped
  // 50 ms lands. The limit must come from the queue after the wait (50 ms),
  // not from the head seen before it (100 ms): otherwise the 100 ms task
  // would ride along only when the 50 ms push happened to land mid-wait.
  Scheduler queue(batching());
  vt::Gate gate;
  auto source = gate.register_source(vt::Time::millis(1));
  ASSERT_TRUE(
      queue.push(make_batchable(1, "late", vt::Time::millis(100), "mm")).ok());
  std::thread producer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_TRUE(
        queue.push(make_batchable(2, "early", vt::Time::millis(50), "mm"))
            .ok());
    source.announce(vt::Time::millis(300));
  });
  PopResult first = queue.pop_next_safe(gate);
  producer.join();
  ASSERT_TRUE(first.task.has_value());
  EXPECT_EQ(first.task->seq, 2u);
  EXPECT_EQ(first.reason, PopReason::kSafe);
  EXPECT_TRUE(first.batch.empty());
  EXPECT_EQ(pop_one(queue, gate).seq, 1u);
}

TEST(BatchingScheduler, DifferentKernelsNeverCoalesce) {
  Scheduler queue(batching());
  vt::Gate gate;
  ASSERT_TRUE(
      queue.push(make_batchable(1, "a", vt::Time::millis(1), "mm")).ok());
  ASSERT_TRUE(
      queue.push(make_batchable(2, "b", vt::Time::millis(2), "sobel")).ok());
  PopResult first = queue.pop_next_safe(gate, kBoardBusy);
  EXPECT_TRUE(first.batch.empty());
  EXPECT_EQ(pop_one(queue, gate, kBoardBusy).batch_key, "sobel");
}

TEST(BatchingScheduler, ProgramTaskIsABatchBarrier) {
  // Nothing coalesces across a reconfiguration: the kernel behind the
  // program task may not even exist on the new bitstream.
  Scheduler queue(batching());
  vt::Gate gate;
  ASSERT_TRUE(
      queue.push(make_batchable(1, "a", vt::Time::millis(1), "mm")).ok());
  Task program;
  program.seq = 2;
  program.client_id = "a";
  program.ready = vt::Time::millis(2);
  program.is_program = true;
  program.bitstream_id = "bits-2";
  ASSERT_TRUE(queue.push(program).ok());
  ASSERT_TRUE(
      queue.push(make_batchable(3, "b", vt::Time::millis(3), "mm")).ok());
  PopResult first = queue.pop_next_safe(gate, kBoardBusy);
  ASSERT_TRUE(first.task.has_value());
  EXPECT_EQ(first.task->seq, 1u);
  EXPECT_TRUE(first.batch.empty());  // barrier stopped the scan
  EXPECT_TRUE(pop_one(queue, gate, kBoardBusy).is_program);
  EXPECT_EQ(pop_one(queue, gate, kBoardBusy).seq, 3u);
}

TEST(BatchingScheduler, SkippedClientBlocksItsLaterTasks) {
  // Client b's first queued task is incompatible (different kernel); pulling
  // b's *later* compatible task into the head's batch would complete it
  // before the earlier one — per-client completion order must hold.
  Scheduler queue(batching());
  vt::Gate gate;
  ASSERT_TRUE(
      queue.push(make_batchable(1, "a", vt::Time::millis(1), "mm")).ok());
  ASSERT_TRUE(
      queue.push(make_batchable(2, "b", vt::Time::millis(2), "sobel")).ok());
  ASSERT_TRUE(
      queue.push(make_batchable(3, "b", vt::Time::millis(3), "mm")).ok());
  // A third client's compatible task is still free to join.
  ASSERT_TRUE(
      queue.push(make_batchable(4, "c", vt::Time::millis(4), "mm")).ok());
  PopResult first = queue.pop_next_safe(gate, kBoardBusy);
  ASSERT_TRUE(first.task.has_value());
  EXPECT_EQ(first.task->seq, 1u);
  ASSERT_EQ(first.batch.size(), 1u);
  EXPECT_EQ(first.batch[0].seq, 4u);  // c joined; b seq 3 stayed blocked
  EXPECT_EQ(pop_one(queue, gate, kBoardBusy).seq, 2u);
  EXPECT_EQ(pop_one(queue, gate, kBoardBusy).seq, 3u);
}

TEST(BatchingScheduler, PerClientCompletionOrderHoldsAcrossDrain) {
  // Seeded-ish mixed workload: every client's tasks must leave the scheduler
  // (head or batch position) in seq order, whatever the batching decisions.
  Scheduler queue(batching(3));
  vt::Gate gate;
  std::uint64_t seq = 0;
  for (int wave = 0; wave < 10; ++wave) {
    for (const char* client : {"a", "b", "c"}) {
      const bool compatible = (wave + client[0]) % 3 != 0;
      Task task = make_batchable(seq, client,
                                 vt::Time::millis(1 + wave),
                                 compatible ? "mm" : "sobel");
      task.seq = seq++;
      ASSERT_TRUE(queue.push(task).ok());
    }
  }
  std::map<std::string, std::uint64_t> last_seq;
  int drained = 0;
  while (queue.size() > 0) {
    PopResult result = queue.pop_next_safe(gate, kBoardBusy);
    ASSERT_TRUE(result.task.has_value());
    std::vector<const Task*> completed{&*result.task};
    for (const Task& companion : result.batch) completed.push_back(&companion);
    for (const Task* task : completed) {
      auto it = last_seq.find(task->client_id);
      if (it != last_seq.end()) {
        EXPECT_LT(it->second, task->seq)
            << "client " << task->client_id << " completion order inverted";
      }
      last_seq[task->client_id] = task->seq;
      ++drained;
    }
  }
  EXPECT_EQ(drained, 30);
}

TEST(BatchingScheduler, CancelSessionRemovesQueuedCompanions) {
  Scheduler queue(batching());
  vt::Gate gate;
  ASSERT_TRUE(
      queue.push(make_batchable(1, "a", vt::Time::millis(1), "mm", 7)).ok());
  ASSERT_TRUE(
      queue.push(make_batchable(2, "b", vt::Time::millis(2), "mm", 9)).ok());
  ASSERT_TRUE(
      queue.push(make_batchable(3, "b", vt::Time::millis(3), "mm", 9)).ok());
  std::vector<Task> cancelled = queue.cancel_session(9);
  ASSERT_EQ(cancelled.size(), 2u);
  EXPECT_EQ(cancelled[0].seq, 2u);
  EXPECT_EQ(cancelled[1].seq, 3u);
  // The surviving session's task pops alone: cancelled tasks never appear in
  // a later batch.
  PopResult result = queue.pop_next_safe(gate, kBoardBusy);
  ASSERT_TRUE(result.task.has_value());
  EXPECT_EQ(result.task->session_id, 7u);
  EXPECT_TRUE(result.batch.empty());
  EXPECT_EQ(queue.size(), 0u);
}

TEST(BatchingScheduler, ShutdownDrainStillBatchesAndKeepsClientOrder) {
  // The injected-fault/shutdown drain path goes through the same take hook:
  // batches stay well-formed (head + companions, per-client seq order) even
  // when the pop is marked best-effort.
  Scheduler queue(batching());
  vt::Gate gate;
  for (std::uint64_t i = 1; i <= 3; ++i) {
    ASSERT_TRUE(
        queue.push(make_batchable(i, "a", vt::Time::millis(i), "mm")).ok());
  }
  gate.shutdown();  // the fault path every injected devmgr fault ends in
  PopResult result = queue.pop_next_safe(gate, kBoardBusy);
  ASSERT_TRUE(result.task.has_value());
  EXPECT_EQ(result.reason, PopReason::kShutdownDrain);
  EXPECT_EQ(result.task->seq, 1u);
  ASSERT_EQ(result.batch.size(), 2u);
  EXPECT_EQ(result.batch[0].seq, 2u);
  EXPECT_EQ(result.batch[1].seq, 3u);
}

// ---- Eligibility: which tasks a batching pop may choose among --------------

// The popped task's seq followed by its batch companions' seqs.
std::vector<std::uint64_t> popped_seqs(const PopResult& result) {
  std::vector<std::uint64_t> seqs;
  if (result.task.has_value()) seqs.push_back(result.task->seq);
  for (const Task& companion : result.batch) seqs.push_back(companion.seq);
  return seqs;
}

TEST(Eligibility, LaterStampedTaskDoesNotChangeThePop) {
  // The 5 ms task runs the same kernel, but it has not arrived by the time
  // the board frees (5 ms > max(1 ms, 2 ms)). Whether a dispatcher happened
  // to push it already must not change the pop.
  for (const bool later_present : {false, true}) {
    Scheduler queue(batching());
    vt::Gate gate;
    ASSERT_TRUE(
        queue.push(make_batchable(1, "a", vt::Time::millis(1), "mm")).ok());
    ASSERT_TRUE(
        queue.push(make_batchable(2, "b", vt::Time::millis(2), "mm")).ok());
    if (later_present) {
      ASSERT_TRUE(
          queue.push(make_batchable(3, "late", vt::Time::millis(5), "mm"))
              .ok());
    }
    EXPECT_EQ(popped_seqs(queue.pop_next_safe(gate, vt::Time::millis(2))),
              (std::vector<std::uint64_t>{1, 2}))
        << (later_present ? "with" : "without") << " the 5 ms task";
  }
}

TEST(Eligibility, IdleBoardPopsEarliestReadyTask) {
  // The board has been idle since 0 ms when a arrives at 1 ms; a same-kernel
  // companion arrives only at 3 ms. A work-conserving scheduler starts a at
  // once instead of waiting on the gate for later work (which would end in
  // a stall fallback here: the source never moves).
  Scheduler queue(batching());
  vt::Gate gate;
  gate.set_stall_grace(std::chrono::milliseconds(50));
  auto source = gate.register_source(vt::Time::millis(1));
  ASSERT_TRUE(
      queue.push(make_batchable(1, "a", vt::Time::millis(1), "mm")).ok());
  ASSERT_TRUE(
      queue.push(make_batchable(2, "b", vt::Time::millis(3), "mm")).ok());
  PopResult result = queue.pop_next_safe(gate, vt::Time::zero());
  EXPECT_EQ(popped_seqs(result), std::vector<std::uint64_t>{1});
  EXPECT_EQ(result.reason, PopReason::kSafe);
}

TEST(Eligibility, FifoNeverWaitsForTheBoard) {
  // With max_batch == 1 the pop ignores board_free: the source's bound has
  // passed the head but will never reach the busy board's free time, so a
  // pop that waited for the board would end in a stall fallback.
  Scheduler queue;
  vt::Gate gate;
  gate.set_stall_grace(std::chrono::milliseconds(50));
  auto source = gate.register_source(vt::Time::millis(2));
  ASSERT_TRUE(
      queue.push(make_batchable(1, "a", vt::Time::millis(1), "mm")).ok());
  ASSERT_TRUE(
      queue.push(make_batchable(2, "b", vt::Time::millis(3), "mm")).ok());
  PopResult result = queue.pop_next_safe(gate, kBoardBusy);
  EXPECT_EQ(popped_seqs(result), std::vector<std::uint64_t>{1});
  EXPECT_EQ(result.reason, PopReason::kSafe);
}

// ---- DeviceManager with max_batch > 1: the batched execution path end to end

// One board behind a batching manager, driven by closed-loop clients that
// each submit the same small vadd task (write a, write b, kernel, read c,
// finish): same kernel, no wait lists, a few KiB of transfers — so queued
// tasks of different clients coalesce into shared board passes.
constexpr std::size_t kBatchClients = 3;
constexpr int kBatchRequests = 6;
constexpr std::size_t kVaddN = 256;
constexpr std::uint64_t kOpsPerTask = 5;  // 2 writes, kernel, read, finish
const char* const kBatchManager = "devmgr-batch";

struct BatchRig {
  BatchRig() {
    sim::BoardConfig bc;
    bc.id = "fpga-batch";
    bc.node = "B";
    bc.host = sim::make_node_b();
    bc.memory_bytes = 64 * kMiB;
    board = std::make_unique<sim::Board>(bc);
    DeviceManagerConfig mc;
    mc.id = kBatchManager;
    mc.scheduler.max_batch = kBatchClients;
    manager = std::make_unique<DeviceManager>(mc, board.get(), &node_shm);
    remote::ManagerAddress address;
    address.endpoint = &manager->endpoint();
    address.transport = net::local_control(bc.host);
    address.node_shm = &node_shm;
    runtime = std::make_unique<remote::RemoteRuntime>(
        std::vector<remote::ManagerAddress>{address});
  }

  shm::Namespace node_shm;
  std::unique_ptr<sim::Board> board;
  std::unique_ptr<DeviceManager> manager;
  std::unique_ptr<remote::RemoteRuntime> runtime;
};

// What one client observed, per op in enqueue order.
struct ClientLog {
  std::vector<Status> statuses;
  std::vector<vt::Time> completions;  // meaningful for OK ops only
  bool outputs_match = true;          // every OK read returned a + b
};

// One client's whole life on its own thread: set-up, kBatchRequests traced
// vadd tasks, teardown (closing the session releases its gate source).
void run_batch_client(remote::RemoteRuntime& runtime, const std::string& name,
                      int client_index, ClientLog& log) {
  ocl::Session session(name);
  auto context = runtime.create_context("fpga-batch", session);
  ASSERT_TRUE(context.ok());
  ASSERT_TRUE(context.value()->program(sim::BitstreamLibrary::kVadd).ok());
  const std::uint64_t bytes = kVaddN * sizeof(float);
  auto ba = context.value()->create_buffer(bytes);
  auto bb = context.value()->create_buffer(bytes);
  auto bc = context.value()->create_buffer(bytes);
  ASSERT_TRUE(ba.ok() && bb.ok() && bc.ok());
  auto kernel = context.value()->create_kernel("vadd");
  ASSERT_TRUE(kernel.ok());
  kernel.value().set_arg(0, ba.value());
  kernel.value().set_arg(1, bb.value());
  kernel.value().set_arg(2, bc.value());
  kernel.value().set_arg(3, static_cast<std::int64_t>(kVaddN));
  auto queue = context.value()->create_queue();
  ASSERT_TRUE(queue.ok());
  for (int request = 0; request < kBatchRequests; ++request) {
    session.set_trace_context(trace::mint_trace(
        name, static_cast<std::uint64_t>(request + 1), session.now()));
    std::vector<float> a(kVaddN);
    std::vector<float> b(kVaddN);
    std::vector<float> c(kVaddN, -1.0F);
    for (std::size_t i = 0; i < kVaddN; ++i) {
      a[i] = static_cast<float>(request * 1000 + static_cast<int>(i));
      b[i] = static_cast<float>(client_index * 100000);
    }
    std::vector<ocl::EventPtr> events;
    auto wa = queue.value()->enqueue_write(
        ba.value(), 0, as_bytes(a.data(), bytes), /*blocking=*/false);
    auto wb = queue.value()->enqueue_write(
        bb.value(), 0, as_bytes(b.data(), bytes), /*blocking=*/false);
    auto run = queue.value()->enqueue_kernel(kernel.value(), {kVaddN, 1, 1});
    auto rc = queue.value()->enqueue_read(
        bc.value(), 0, as_writable_bytes(c.data(), bytes), /*blocking=*/false);
    ASSERT_TRUE(wa.ok() && wb.ok() && run.ok() && rc.ok());
    const Status finished = queue.value()->finish();
    for (const ocl::EventPtr& event :
         {wa.value(), wb.value(), run.value(), rc.value()}) {
      const Status status = event->wait();
      log.statuses.push_back(status);
      log.completions.push_back(status.ok() ? event->completion_time()
                                            : vt::Time::zero());
    }
    log.statuses.push_back(finished);
    log.completions.push_back(session.now());
    if (rc.value()->wait().ok()) {
      for (std::size_t i = 0; i < kVaddN; ++i) {
        if (c[i] != a[i] + b[i]) log.outputs_match = false;
      }
    }
  }
  session.set_trace_context({});
}

// Runs every client concurrently against a fresh rig; returns the logs and
// fills in the manager's final task/op counters.
std::vector<ClientLog> run_batch_clients(std::uint64_t* tasks,
                                         std::uint64_t* ops) {
  BatchRig rig;
  std::vector<ClientLog> logs(kBatchClients);
  std::vector<std::thread> clients;
  for (std::size_t i = 0; i < kBatchClients; ++i) {
    clients.emplace_back([&, i] {
      run_batch_client(*rig.runtime, "tenant-" + std::to_string(i),
                       static_cast<int>(i), logs[i]);
    });
  }
  for (std::thread& client : clients) client.join();
  *tasks = rig.manager->tasks_executed();
  *ops = rig.manager->ops_executed();
  return logs;
}

TEST(BatchingDeviceManager, CoalescedTasksCompleteInOrderWithOneSpanSetEach) {
  trace::TraceBuilder builder(5);
  trace::install(&builder);
  std::uint64_t tasks = 0;
  std::uint64_t ops = 0;
  const std::vector<ClientLog> logs = run_batch_clients(&tasks, &ops);
  trace::install(nullptr);

  constexpr std::uint64_t kTasks = kBatchClients * kBatchRequests;
  EXPECT_EQ(tasks, kTasks);
  EXPECT_EQ(ops, kTasks * kOpsPerTask);
  for (std::size_t i = 0; i < logs.size(); ++i) {
    SCOPED_TRACE("client " + std::to_string(i));
    ASSERT_EQ(logs[i].statuses.size(), kBatchRequests * kOpsPerTask);
    for (std::size_t op = 0; op < logs[i].statuses.size(); ++op) {
      EXPECT_TRUE(logs[i].statuses[op].ok())
          << "op " << op << ": " << logs[i].statuses[op].to_string();
      if (op > 0) {
        EXPECT_LE(logs[i].completions[op - 1], logs[i].completions[op])
            << "op " << op << " completed before its predecessor";
      }
    }
    EXPECT_TRUE(logs[i].outputs_match);
  }

  // Exactly one task / queue-wait / execute span per task and one op:* span
  // per non-finish op; every request is its own trace.
  std::map<std::uint64_t, std::map<std::string, int>> by_trace;
  std::vector<trace::Span> kernels;
  for (const trace::Span& span : builder.spans()) {
    if (span.track != kBatchManager) continue;
    ++by_trace[span.trace_id][span.name];
    if (span.name == "op:kernel") kernels.push_back(span);
  }
  EXPECT_EQ(by_trace.size(), kTasks);
  const std::map<std::string, int> expected{
      {"task", 1},     {"queue-wait", 1}, {"execute", 1},
      {"op:write", 2}, {"op:kernel", 1},  {"op:read", 1}};
  for (const auto& [trace_id, counts] : by_trace) {
    EXPECT_EQ(counts, expected) << "trace " << trace_id;
  }
  // Coalescing really happened: inside one board pass the launches run back
  // to back, so some kernel span starts exactly where another task's ends
  // (unbatched tasks always have transfers between their kernels).
  std::sort(kernels.begin(), kernels.end(),
            [](const trace::Span& x, const trace::Span& y) {
              return x.start < y.start;
            });
  std::size_t back_to_back = 0;
  for (std::size_t i = 1; i < kernels.size(); ++i) {
    if (kernels[i].start == kernels[i - 1].end &&
        kernels[i].trace_id != kernels[i - 1].trace_id) {
      ++back_to_back;
    }
  }
  EXPECT_GT(back_to_back, 0u);
}

TEST(BatchingDeviceManager, InjectedAbortFailsEveryOpAndRecordsNoSpans) {
  trace::TraceBuilder builder(6);
  trace::install(&builder);
  std::uint64_t tasks = 0;
  std::uint64_t ops = 0;
  std::vector<ClientLog> logs;
  {
    fault::ScopedInjection inject(6);
    inject.site(fault::site::kDevmgrTaskAbort, {.probability = 1.0});
    logs = run_batch_clients(&tasks, &ops);
  }
  trace::install(nullptr);

  constexpr std::uint64_t kTasks = kBatchClients * kBatchRequests;
  EXPECT_EQ(tasks, kTasks);
  EXPECT_EQ(ops, kTasks * kOpsPerTask);
  for (std::size_t i = 0; i < logs.size(); ++i) {
    SCOPED_TRACE("client " + std::to_string(i));
    ASSERT_EQ(logs[i].statuses.size(), kBatchRequests * kOpsPerTask);
    for (const Status& status : logs[i].statuses) {
      EXPECT_EQ(status.code(), StatusCode::kAborted) << status.to_string();
    }
  }
  for (const trace::Span& span : builder.spans()) {
    EXPECT_NE(span.track, kBatchManager) << span.name;
    EXPECT_EQ(span.name.rfind("kernel:", 0), std::string::npos);
  }
}

}  // namespace
}  // namespace bf::devmgr
