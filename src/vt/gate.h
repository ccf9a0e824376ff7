// Conservative virtual-time gate.
//
// The Device Manager's worker thread must execute tasks in modeled-arrival
// order even though producer threads race in real time. Each producer
// (client connection) registers as a Source and continuously *announces* a
// lower bound: "I will never again emit a message stamped earlier than B".
// The worker calls wait_safe(t) before executing a task stamped t; it blocks
// until every source's bound has reached t. A source that is blocked waiting
// for a reply announces Time::infinite() (it cannot emit until woken).
//
// This is classic conservative parallel discrete-event synchronization
// (Chandy–Misra null messages, collapsed into shared-memory bounds).
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>

#include "vt/time.h"

namespace bf::vt {

class Gate {
 public:
  Gate() = default;
  Gate(const Gate&) = delete;
  Gate& operator=(const Gate&) = delete;

  // RAII registration. Move-only; unregisters on destruction.
  class Source {
   public:
    Source() = default;
    Source(Gate* gate, std::uint64_t id) : gate_(gate), id_(id) {}
    Source(Source&& other) noexcept { *this = std::move(other); }
    Source& operator=(Source&& other) noexcept {
      release();
      gate_ = other.gate_;
      id_ = other.id_;
      other.gate_ = nullptr;
      return *this;
    }
    ~Source() { release(); }

    // "I will not emit anything stamped earlier than `bound`."
    // Must be called before pushing a message stamped >= bound.
    void announce(Time bound) {
      if (gate_ != nullptr) gate_->announce(id_, bound, /*owned=*/true);
    }
    // Blocked waiting on a reply; cannot emit until woken. The bound becomes
    // infinite and *unowned*: the server may nudge it (see nudge) until the
    // producer announces again.
    void block() {
      if (gate_ != nullptr) {
        gate_->announce(id_, Time::infinite(), /*owned=*/false);
      }
    }
    // Server-side lookahead: when the consumer sends this producer a frame
    // that may wake it, the producer's next emission cannot be stamped
    // earlier than the frame's arrival. Applies only while the bound is
    // unowned (producer blocked); a concurrent producer announce wins.
    void nudge(Time bound) {
      if (gate_ != nullptr) gate_->nudge(id_, bound);
    }

    [[nodiscard]] bool valid() const { return gate_ != nullptr; }

   private:
    void release() {
      if (gate_ != nullptr) gate_->unregister(id_);
      gate_ = nullptr;
    }
    Gate* gate_ = nullptr;
    std::uint64_t id_ = 0;
  };

  // Registers a new source with the given initial bound. The producer must
  // announce before each send; see Source::announce.
  Source register_source(Time initial_bound);

  // Blocks until no registered source could still emit a message stamped
  // earlier than t. Returns false if the gate was shut down.
  //
  // Liveness stall-breaker: if no source's bound changes for `stall_grace`
  // of real time, the wait proceeds optimistically. A producer thread that
  // is genuinely idle (e.g. two sessions driven by one application thread)
  // would otherwise deadlock the consumer; a real (non-virtual-time) system
  // simply executes in arrival order in that situation, which is what the
  // fallback reproduces. A producer that keeps sending never trips it, but
  // an idle one does, since its bound stays at its last announce; callers
  // that know a session will stay idle announce Time::infinite() for it
  // instead (docs/VIRTUAL_TIME.md, "Parked sessions").
  //
  // When `fallback` is non-null it is set to true iff the wait proceeded
  // via the stall-breaker rather than a genuinely safe bound — consumers
  // that audit ordering (the fault matrix) use it to mark best-effort pops.
  bool wait_safe(Time t, bool* fallback = nullptr);

  void set_stall_grace(std::chrono::milliseconds grace) {
    std::lock_guard lock(mutex_);
    stall_grace_ = grace;
  }

  // Earliest bound across sources; infinite() if none are registered.
  [[nodiscard]] Time min_bound() const;

  [[nodiscard]] std::size_t source_count() const;

  // Wakes all waiters and makes every current/future wait_safe return false.
  void shutdown();

  [[nodiscard]] bool is_shutdown() const;

 private:
  friend class Source;

  struct Bound {
    Time time = Time::zero();
    bool owned = true;  // true: producer-announced; false: nudgeable
  };

  void announce(std::uint64_t id, Time bound, bool owned);
  void nudge(std::uint64_t id, Time bound);
  void unregister(std::uint64_t id);
  [[nodiscard]] Time min_bound_locked() const;

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::unordered_map<std::uint64_t, Bound> bounds_;
  std::uint64_t next_id_ = 1;
  std::uint64_t version_ = 0;  // bumped on any bound change
  std::chrono::milliseconds stall_grace_{200};
  bool shutdown_ = false;
};

}  // namespace bf::vt
