// Arena allocation for the per-request hot path (ROADMAP item 4).
//
// Two tools, both recycling storage instead of round-tripping through the
// global heap on every request (docs/PERFORMANCE.md "hot-path memory
// discipline"):
//
//   bf::arena::acquire / recycle
//     Process-wide pooled free lists of heap-backed Bytes buffers keyed by
//     power-of-two size class. Producers acquire an empty buffer with at
//     least the requested capacity (wire Writers, frame payload staging);
//     the consumer that retires a frame recycles its payload. Buffers that
//     fit in the Bytes inline storage are never pooled — recycling them
//     saves nothing.
//
//   bf::arena::Pool<T>
//     A typed free list for containers whose *capacity* is the expensive
//     part (e.g. std::vector<devmgr::Operation>): acquire() hands back an
//     empty container that keeps its previous heap capacity, recycle()
//     clears and stores it. Spinlocked: acquire/recycle are a few
//     instructions and never syscall.
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/bytes.h"

namespace bf::arena {

namespace detail {

// Size classes: pow2 buckets from 128 B (first heap-worthy size above the
// Bytes inline capacity) to 8 MiB (a 1920x1080 RGBA frame). Larger buffers
// bypass the pool.
inline constexpr std::size_t kMinClassBytes = 128;
inline constexpr std::size_t kMaxClassBytes = 8 * kMiB;
inline constexpr std::size_t kClassCount = 17;  // 2^7 .. 2^23
inline constexpr std::size_t kBuffersPerClass = 8;

inline constexpr std::size_t class_index(std::size_t bytes) {
  const std::size_t rounded =
      bytes < kMinClassBytes ? kMinClassBytes : std::bit_ceil(bytes);
  return static_cast<std::size_t>(std::countr_zero(rounded)) - 7;
}

struct SpinLock {
  void lock() {
    while (flag.test_and_set(std::memory_order_acquire)) {
      flag.wait(true, std::memory_order_relaxed);
    }
  }
  void unlock() {
    flag.clear(std::memory_order_release);
    flag.notify_one();
  }
  std::atomic_flag flag = ATOMIC_FLAG_INIT;
};

struct SpinGuard {
  explicit SpinGuard(SpinLock& lock) : lock_(lock) { lock_.lock(); }
  ~SpinGuard() { lock_.unlock(); }
  SpinLock& lock_;
};

struct SizeClass {
  SpinLock lock;
  std::vector<Bytes> buffers;  // all heap-backed, capacity in class range
};

struct ByteArena {
  std::array<SizeClass, kClassCount> classes;
  std::atomic<std::uint64_t> hits{0};
  std::atomic<std::uint64_t> misses{0};
  std::atomic<std::uint64_t> recycled{0};
  std::atomic<std::uint64_t> dropped{0};
};

inline ByteArena& byte_arena() {
  static ByteArena arena;
  return arena;
}

}  // namespace detail

struct Stats {
  std::uint64_t hits = 0;      // acquire served from a free list
  std::uint64_t misses = 0;    // acquire fell through to the heap
  std::uint64_t recycled = 0;  // buffers returned to a free list
  std::uint64_t dropped = 0;   // buffers freed (class full / too small)
};

[[nodiscard]] inline Stats stats() {
  auto& arena = detail::byte_arena();
  return {arena.hits.load(std::memory_order_relaxed),
          arena.misses.load(std::memory_order_relaxed),
          arena.recycled.load(std::memory_order_relaxed),
          arena.dropped.load(std::memory_order_relaxed)};
}

// Returns an *empty* Bytes with capacity() >= `capacity`, reusing a pooled
// buffer of the matching size class when one is available. Callers append /
// resize as usual; pairing every retired payload with recycle() keeps the
// steady state allocation-free.
[[nodiscard]] inline Bytes acquire(std::size_t capacity) {
  auto& arena = detail::byte_arena();
  // Inline-sized requests never touch the heap: neither a hit nor a miss.
  if (capacity <= Bytes::kInlineCapacity) return Bytes{};
  if (capacity <= detail::kMaxClassBytes) {
    const std::size_t index = detail::class_index(capacity);
    auto& size_class = arena.classes[index];
    detail::SpinGuard guard(size_class.lock);
    if (!size_class.buffers.empty()) {
      Bytes buffer = std::move(size_class.buffers.back());
      size_class.buffers.pop_back();
      arena.hits.fetch_add(1, std::memory_order_relaxed);
      return buffer;
    }
  }
  arena.misses.fetch_add(1, std::memory_order_relaxed);
  Bytes buffer;
  if (capacity <= detail::kMaxClassBytes) {
    // Reserve the full class size so the capacity is a power of two:
    // recycle() then files this buffer under the same class acquire() will
    // search for a same-sized request. An exact-size reservation would
    // recycle into the class *below* (capacity guarantee) and miss forever.
    buffer.reserve(std::size_t{1} << (detail::class_index(capacity) + 7));
  } else {
    buffer.reserve(capacity);
  }
  return buffer;
}

// Returns a retired buffer's heap storage to its size-class free list.
// Inline-storage buffers, oversized buffers and full classes drop to the
// heap as before — recycle is always safe to call.
inline void recycle(Bytes&& buffer) {
  auto& arena = detail::byte_arena();
  const std::size_t capacity = buffer.capacity();
  if (!buffer.is_heap() || capacity < detail::kMinClassBytes ||
      capacity > detail::kMaxClassBytes) {
    arena.dropped.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  // File under the largest class the buffer fully covers, so acquire()'s
  // capacity guarantee holds.
  const std::size_t index = detail::class_index(capacity) -
                            (std::has_single_bit(capacity) ? 0 : 1);
  buffer.clear();
  auto& size_class = arena.classes[index];
  detail::SpinGuard guard(size_class.lock);
  if (size_class.buffers.size() >= detail::kBuffersPerClass) {
    arena.dropped.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  size_class.buffers.push_back(std::move(buffer));
  arena.recycled.fetch_add(1, std::memory_order_relaxed);
}

// Typed container free list (see file comment). T must be default
// constructible and have clear()/capacity-preserving semantics
// (std::vector, Bytes).
template <typename T>
class Pool {
 public:
  explicit Pool(std::size_t max_entries = 16) : max_entries_(max_entries) {}

  [[nodiscard]] T acquire() {
    detail::SpinGuard guard(lock_);
    if (entries_.empty()) return T{};
    T entry = std::move(entries_.back());
    entries_.pop_back();
    return entry;
  }

  void recycle(T&& entry) {
    entry.clear();
    detail::SpinGuard guard(lock_);
    if (entries_.size() >= max_entries_) return;  // drop to the heap
    entries_.push_back(std::move(entry));
  }

  [[nodiscard]] std::size_t size() const {
    detail::SpinGuard guard(lock_);
    return entries_.size();
  }

 private:
  mutable detail::SpinLock lock_;
  std::vector<T> entries_;
  std::size_t max_entries_;
};

}  // namespace bf::arena
