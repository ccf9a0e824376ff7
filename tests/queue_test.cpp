// Hot-path queue contracts: the lock-free SPSC ring and the blocking
// close-aware SpscQueue built on it (the data plane's two single-consumer
// queues). The threaded cases are run under TSan/ASan by
// bench/run_sanitized.sh.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <optional>
#include <thread>
#include <vector>

#include "common/spsc_ring.h"

namespace bf {
namespace {

// ---- SpscRing -----------------------------------------------------------------

TEST(SpscRing, FifoUntilFull) {
  SpscRing<int, 8> ring;
  for (int i = 0; i < 8; ++i) EXPECT_TRUE(ring.try_push(int{i}));
  EXPECT_FALSE(ring.try_push(99));  // full
  EXPECT_EQ(ring.size(), 8u);
  for (int i = 0; i < 8; ++i) {
    auto item = ring.try_pop();
    ASSERT_TRUE(item.has_value());
    EXPECT_EQ(*item, i);
  }
  EXPECT_FALSE(ring.try_pop().has_value());
}

TEST(SpscRing, WrapsAroundManyTimes) {
  SpscRing<int, 4> ring;
  for (int i = 0; i < 1000; ++i) {
    ASSERT_TRUE(ring.try_push(int{i}));
    auto item = ring.try_pop();
    ASSERT_TRUE(item.has_value());
    EXPECT_EQ(*item, i);
  }
}

TEST(SpscRing, ConcurrentProducerConsumerPreservesOrder) {
  SpscRing<int, 16> ring;
  constexpr int kItems = 100000;
  std::thread producer([&] {
    for (int i = 0; i < kItems; ++i) {
      while (!ring.try_push(int{i})) std::this_thread::yield();
    }
  });
  int expected = 0;
  while (expected < kItems) {
    if (auto item = ring.try_pop()) {
      ASSERT_EQ(*item, expected);
      ++expected;
    }
  }
  producer.join();
}

// ---- SpscQueue ----------------------------------------------------------------

TEST(SpscQueue, FifoThroughOverflow) {
  // Push far past the ring capacity without popping: the overflow deque
  // engages and order must survive the ring-full episode and the drain.
  SpscQueue<int, 4> queue;
  constexpr int kItems = 64;
  for (int i = 0; i < kItems; ++i) EXPECT_TRUE(queue.push(int{i}));
  EXPECT_EQ(queue.size(), static_cast<std::size_t>(kItems));
  for (int i = 0; i < kItems; ++i) {
    auto item = queue.pop();
    ASSERT_TRUE(item.has_value());
    EXPECT_EQ(*item, i);
  }
  EXPECT_TRUE(queue.empty());
}

TEST(SpscQueue, InterleavedOverflowDrainKeepsOrder) {
  SpscQueue<int, 4> queue;
  int next_push = 0;
  int next_pop = 0;
  // Alternate bursts that overflow with partial drains.
  for (int round = 0; round < 20; ++round) {
    for (int i = 0; i < 7; ++i) queue.push(int{next_push++});
    for (int i = 0; i < 5; ++i) {
      auto item = queue.pop();
      ASSERT_TRUE(item.has_value());
      EXPECT_EQ(*item, next_pop++);
    }
  }
  while (next_pop < next_push) {
    auto item = queue.pop();
    ASSERT_TRUE(item.has_value());
    EXPECT_EQ(*item, next_pop++);
  }
}

TEST(SpscQueue, PushBatchDeliversInOrderWithOneWake) {
  SpscQueue<int, 8> queue;
  std::vector<int> batch{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12};
  EXPECT_TRUE(queue.push_batch(batch.begin(), batch.end()));
  for (int expected : {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}) {
    auto item = queue.pop();
    ASSERT_TRUE(item.has_value());
    EXPECT_EQ(*item, expected);
  }
}

TEST(SpscQueue, CloseDrainsThenReturnsNullopt) {
  SpscQueue<int, 8> queue;
  queue.push(1);
  queue.push(2);
  queue.close();
  EXPECT_FALSE(queue.push(3));  // dropped after close
  EXPECT_EQ(queue.pop(), std::optional<int>(1));
  EXPECT_EQ(queue.pop(), std::optional<int>(2));
  EXPECT_EQ(queue.pop(), std::nullopt);
}

TEST(SpscQueue, TryPopDistinguishesEmptyFromClosedDrained) {
  SpscQueue<int, 8> queue;
  auto empty = queue.try_pop();
  EXPECT_FALSE(empty.has_item());
  EXPECT_FALSE(empty.closed);

  queue.push(7);
  auto popped = queue.try_pop();
  ASSERT_TRUE(popped.has_item());
  EXPECT_EQ(*popped.item, 7);

  queue.close();
  auto drained = queue.try_pop();
  EXPECT_FALSE(drained.has_item());
  EXPECT_TRUE(drained.closed);
}

TEST(SpscQueue, BlockedConsumerWakesOnPush) {
  SpscQueue<int, 8> queue;
  std::optional<int> received;
  std::thread consumer([&] { received = queue.pop(); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  queue.push(42);
  consumer.join();
  EXPECT_EQ(received, std::optional<int>(42));
}

TEST(SpscQueue, BlockedConsumerWakesOnClose) {
  SpscQueue<int, 8> queue;
  std::optional<int> received = 1;
  std::thread consumer([&] { received = queue.pop(); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  queue.close();
  consumer.join();
  EXPECT_EQ(received, std::nullopt);
}

// The dedicated producer/close race: one producer streaming items, a second
// thread closing mid-stream, the consumer draining until nullopt. Every item
// popped must be an uninterrupted FIFO prefix of what the producer managed
// to push before the close landed.
TEST(SpscQueue, ProducerCloseRaceDeliversFifoPrefix) {
  for (int round = 0; round < 50; ++round) {
    SpscQueue<int, 8> queue;
    std::atomic<int> pushed{0};
    std::thread producer([&] {
      for (int i = 0; i < 10000; ++i) {
        if (!queue.push(int{i})) break;  // closed under us
        pushed.store(i + 1, std::memory_order_release);
      }
    });
    std::thread closer([&] {
      std::this_thread::sleep_for(std::chrono::microseconds(50 * round));
      queue.close();
    });
    int expected = 0;
    while (auto item = queue.pop()) {
      ASSERT_EQ(*item, expected);  // FIFO, no gaps
      ++expected;
    }
    producer.join();
    closer.join();
    // Everything the producer observed as accepted was delivered.
    EXPECT_GE(expected, pushed.load(std::memory_order_acquire));
  }
}

// Two producers (the stream's real shape: dispatcher acks + worker
// completions) serialized by the internal producer lock; per-producer order
// must hold and nothing may be lost or duplicated.
TEST(SpscQueue, TwoProducersPerProducerOrderHolds) {
  SpscQueue<int, 16> queue;
  constexpr int kPerProducer = 20000;
  auto produce = [&](int base) {
    for (int i = 0; i < kPerProducer; ++i) queue.push(base + i);
  };
  std::thread a(produce, 0);
  std::thread b(produce, 1000000);
  int last_a = -1;
  int last_b = 999999;
  for (int i = 0; i < 2 * kPerProducer; ++i) {
    auto item = queue.pop();
    ASSERT_TRUE(item.has_value());
    if (*item < 1000000) {
      ASSERT_GT(*item, last_a);
      last_a = *item;
    } else {
      ASSERT_GT(*item, last_b);
      last_b = *item;
    }
  }
  a.join();
  b.join();
  EXPECT_EQ(last_a, kPerProducer - 1);
  EXPECT_EQ(last_b, 1000000 + kPerProducer - 1);
  EXPECT_TRUE(queue.empty());
}

// One producer, a ring of two: the consumer's ring miss and its overflow
// pop are two steps, and in between the producer can refill the ring and
// spill a newer item into the overflow. The ring's (older) items must still
// come out first — the manager inbox and the client notification pump each
// have a single producer and rely on frame order.
TEST(SpscQueue, SingleProducerOrderHoldsAcrossRingRefill) {
  constexpr int kRounds = 50;
  constexpr int kItems = 20000;
  for (int round = 0; round < kRounds; ++round) {
    SpscQueue<int, 2> queue;
    std::thread producer([&] {
      for (int i = 0; i < kItems; ++i) queue.push(int{i});
    });
    int last = -1;
    int inversions = 0;
    int popped = 0;
    for (; popped < kItems; ++popped) {
      auto item = queue.pop();  // never blocks for good: kItems are coming
      if (!item.has_value()) break;
      if (*item < last) ++inversions;
      last = std::max(last, *item);
    }
    producer.join();
    ASSERT_EQ(popped, kItems) << "round " << round;
    ASSERT_EQ(inversions, 0) << "round " << round;
  }
}

}  // namespace
}  // namespace bf
