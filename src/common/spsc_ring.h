// Lock-free single-producer / single-consumer ring plus the blocking,
// close-aware queue built on it that the data plane's two single-consumer
// hot queues use (the remote library's completion pump and the dispatcher→
// client delivery path): no mutex, no deque node allocation per item, and a
// futex wake only when the consumer is actually asleep.
//
// Contracts (docs/PERFORMANCE.md "hot-path memory discipline"):
//   SpscRing      — exactly one pushing thread and one popping thread, ever.
//   SpscQueue     — exactly one popping thread; multiple producers are
//                   tolerated via an internal producer spinlock (the hot
//                   case is a single producer, so the lock is uncontended
//                   and never syscalls). Unbounded: when the ring is full,
//                   items overflow into a mutex-guarded deque; FIFO order
//                   is preserved because producers route through the
//                   overflow until the consumer has drained it.
#pragma once

#include <atomic>
#include <cstddef>
#include <deque>
#include <mutex>
#include <optional>
#include <utility>

namespace bf {

// Non-blocking pop outcome of SpscQueue::try_pop. `closed` distinguishes
// "momentarily empty" from "closed and drained" so pollers can stop instead
// of spinning forever on a dead queue.
template <typename T>
struct TryPopResult {
  std::optional<T> item;
  bool closed = false;  // true only when the queue is closed AND drained

  [[nodiscard]] bool has_item() const { return item.has_value(); }
};

// Fixed-capacity lock-free SPSC ring. Capacity must be a power of two.
// Indices are monotonically increasing; head_ is owned by the consumer,
// tail_ by the producer, each side caching the other's index to avoid
// cache-line ping-pong on every operation.
template <typename T, std::size_t Capacity = 256>
class SpscRing {
  static_assert(Capacity >= 2 && (Capacity & (Capacity - 1)) == 0,
                "Capacity must be a power of two");

 public:
  // Producer side. Returns false when the ring is full.
  bool try_push(T&& item) {
    const std::size_t tail = tail_.load(std::memory_order_relaxed);
    if (tail - cached_head_ >= Capacity) {
      cached_head_ = head_.load(std::memory_order_acquire);
      if (tail - cached_head_ >= Capacity) return false;
    }
    slots_[tail & (Capacity - 1)] = std::move(item);
    tail_.store(tail + 1, std::memory_order_release);
    return true;
  }

  // Consumer side. Returns nullopt when the ring is empty.
  std::optional<T> try_pop() {
    const std::size_t head = head_.load(std::memory_order_relaxed);
    if (head == cached_tail_) {
      cached_tail_ = tail_.load(std::memory_order_acquire);
      if (head == cached_tail_) return std::nullopt;
    }
    std::optional<T> item(std::move(slots_[head & (Capacity - 1)]));
    head_.store(head + 1, std::memory_order_release);
    return item;
  }

  // Approximate when racing the other side; exact when quiescent.
  [[nodiscard]] std::size_t size() const {
    const std::size_t tail = tail_.load(std::memory_order_acquire);
    const std::size_t head = head_.load(std::memory_order_acquire);
    return tail >= head ? tail - head : 0;
  }

 private:
  alignas(64) std::atomic<std::size_t> head_{0};  // consumer-owned
  alignas(64) std::size_t cached_tail_ = 0;       // consumer-local
  alignas(64) std::atomic<std::size_t> tail_{0};  // producer-owned
  alignas(64) std::size_t cached_head_ = 0;       // producer-local
  alignas(64) T slots_[Capacity];
};

// Unbounded blocking queue with shutdown semantics, specialized for a
// single consumer (push / pop / try_pop / close). The common path is a
// lock-free ring push + a sequence bump, and pop spins through the ring
// without ever taking a mutex. The consumer blocks on a C++20 atomic wait;
// producers only notify when `waiting_` says the consumer is actually
// parked.
template <typename T, std::size_t RingCapacity = 256>
class SpscQueue {
 public:
  // Returns false if the queue is closed (item is dropped).
  bool push(T item) {
    ProducerLock lock(producer_lock_);
    if (closed_.load(std::memory_order_acquire)) return false;
    push_locked(std::move(item));
    bump_and_wake();
    return true;
  }

  // Pushes a batch with a single consumer wake at the end — the Device
  // Manager's batched completion notify. Returns false (dropping the
  // remainder) if the queue is closed.
  template <typename It>
  bool push_batch(It first, It last) {
    ProducerLock lock(producer_lock_);
    if (closed_.load(std::memory_order_acquire)) return false;
    for (; first != last; ++first) push_locked(std::move(*first));
    bump_and_wake();
    return true;
  }

  // Blocks until an item is available or the queue is closed and drained.
  std::optional<T> pop() {
    for (;;) {
      const std::uint32_t seq = seq_.load(std::memory_order_acquire);
      if (auto item = consume()) return item;
      if (closed_.load(std::memory_order_acquire)) {
        // Drain race: a producer may have pushed between consume() and the
        // closed check.
        if (auto item = consume()) return item;
        return std::nullopt;
      }
      waiting_.store(true, std::memory_order_seq_cst);
      // Recheck after publishing waiting_: a push that missed the flag
      // bumped seq_ first, so wait() returns immediately.
      if (auto item = consume()) {
        waiting_.store(false, std::memory_order_relaxed);
        return item;
      }
      seq_.wait(seq, std::memory_order_acquire);
      waiting_.store(false, std::memory_order_relaxed);
    }
  }

  // Non-blocking pop; closed-aware so pollers can stop when the queue is
  // closed and drained instead of spinning forever.
  TryPopResult<T> try_pop() {
    if (auto item = consume()) return {std::move(item), false};
    if (closed_.load(std::memory_order_acquire)) {
      if (auto item = consume()) return {std::move(item), false};
      return {std::nullopt, true};
    }
    return {std::nullopt, false};
  }

  void close() {
    {
      ProducerLock lock(producer_lock_);
      closed_.store(true, std::memory_order_release);
    }
    seq_.fetch_add(1, std::memory_order_seq_cst);
    seq_.notify_all();
  }

  [[nodiscard]] bool closed() const {
    return closed_.load(std::memory_order_acquire);
  }

  // Approximate while producers race; exact when quiescent.
  [[nodiscard]] std::size_t size() const {
    std::size_t overflowed = 0;
    if (overflow_active_.load(std::memory_order_acquire)) {
      std::lock_guard lock(overflow_mutex_);
      overflowed = overflow_.size();
    }
    return ring_.size() + overflowed;
  }

  [[nodiscard]] bool empty() const { return size() == 0; }

 private:
  struct ProducerLock {
    explicit ProducerLock(std::atomic_flag& flag) : flag_(flag) {
      while (flag_.test_and_set(std::memory_order_acquire)) {
        flag_.wait(true, std::memory_order_relaxed);
      }
    }
    ~ProducerLock() {
      flag_.clear(std::memory_order_release);
      flag_.notify_one();
    }
    std::atomic_flag& flag_;
  };

  // Producer-lock held. Routes through the overflow deque while it is
  // non-empty so FIFO order survives ring-full episodes.
  void push_locked(T&& item) {
    if (overflow_active_.load(std::memory_order_acquire)) {
      std::lock_guard lock(overflow_mutex_);
      if (!overflow_.empty()) {
        overflow_.push_back(std::move(item));
        return;
      }
      // Consumer drained the overflow since we checked; fall through to the
      // ring (which it also drained, so this cannot fail... unless other
      // pushes refilled it — handle that too).
      if (ring_.try_push(std::move(item))) return;
      overflow_.push_back(std::move(item));
      overflow_active_.store(true, std::memory_order_release);
      return;
    }
    if (ring_.try_push(std::move(item))) return;
    std::lock_guard lock(overflow_mutex_);
    overflow_.push_back(std::move(item));
    overflow_active_.store(true, std::memory_order_release);
  }

  void bump_and_wake() {
    seq_.fetch_add(1, std::memory_order_seq_cst);
    if (waiting_.load(std::memory_order_seq_cst)) seq_.notify_one();
  }

  // Consumer side: ring first (older items), then the overflow.
  std::optional<T> consume() {
    if (auto item = ring_.try_pop()) return item;
    if (overflow_active_.load(std::memory_order_acquire)) {
      std::lock_guard lock(overflow_mutex_);
      // Between the miss above and this lock, producers may have refilled
      // the ring and spilled a newer item into the overflow. Producers stop
      // pushing to the ring once the overflow is non-empty, so whatever the
      // ring holds now is older than the overflow's front.
      if (auto item = ring_.try_pop()) return item;
      if (!overflow_.empty()) {
        std::optional<T> item(std::move(overflow_.front()));
        overflow_.pop_front();
        if (overflow_.empty()) {
          overflow_active_.store(false, std::memory_order_release);
        }
        return item;
      }
      overflow_active_.store(false, std::memory_order_release);
    }
    return std::nullopt;
  }

  SpscRing<T, RingCapacity> ring_;
  std::atomic_flag producer_lock_ = ATOMIC_FLAG_INIT;
  std::atomic<bool> closed_{false};
  std::atomic<std::uint32_t> seq_{0};
  std::atomic<bool> waiting_{false};
  mutable std::mutex overflow_mutex_;
  std::deque<T> overflow_;
  std::atomic<bool> overflow_active_{false};
};

}  // namespace bf
