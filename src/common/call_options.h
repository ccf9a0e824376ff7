// Per-call failure-handling options for control-plane calls.
//
// BlastFunction's control plane is an in-process gRPC analogue running on
// virtual time; like gRPC, every unary call can carry a deadline and a retry
// policy. Both are expressed in *modeled* time so recovery behaviour is
// deterministic: a timed-out call completes with DEADLINE_EXCEEDED at a
// VT stamp that is a pure function of the modeled state, and backoff between
// retry attempts is charged to the caller's virtual clock with seeded jitter.
//
// Defaults are zero-cost: no deadline, a single attempt, no extra VT charged
// anywhere — a fabric with default CallOptions behaves bit-identically to
// one that predates this header.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>

#include "common/rng.h"
#include "common/status.h"
#include "vt/time.h"

namespace bf {

// Capped exponential backoff with seeded jitter for idempotent retries.
// attempt N (0-based) sleeps base = initial_backoff * multiplier^N, capped
// at max_backoff, then scaled by a jitter factor drawn uniformly from
// [1 - jitter, 1 + jitter) out of a deterministic per-policy RNG stream.
struct RetryPolicy {
  unsigned max_attempts = 1;  // total tries, including the first (1 = none)
  vt::Duration initial_backoff = vt::Duration::millis(1);
  double multiplier = 2.0;
  vt::Duration max_backoff = vt::Duration::millis(50);
  double jitter = 0.25;          // +/- fraction of the base delay
  std::uint64_t jitter_seed = 0;  // RNG stream id; same seed => same delays
};

struct CallOptions {
  // Relative deadline: each call (each *attempt*, at the net layer) must
  // complete within `timeout` of modeled time from when it starts. Zero
  // means no deadline (the pre-CallOptions blocking behaviour).
  vt::Duration timeout{};

  RetryPolicy retry;

  // Real-time escape hatch for a genuinely wedged server (crashed worker,
  // reply dropped on the wire): a call with a finite deadline that has seen
  // no reply for this much *wall* time abandons the wait and completes with
  // DEADLINE_EXCEEDED at the modeled deadline. Mirrors vt::Gate's
  // stall_grace philosophy — the modeled outcome stays deterministic; only
  // how long we physically wait for it is wall-clock. Keep it generous: a
  // slow-but-alive server that exceeds the grace would surface a timeout a
  // deterministic replay might not.
  std::chrono::milliseconds wedge_grace{1000};

  // The absolute modeled deadline for a call starting at `now`.
  [[nodiscard]] vt::Time deadline_from(vt::Time now) const {
    return timeout.ns() > 0 ? now + timeout : vt::Time::infinite();
  }
};

// Stateful delay sequence for one call's retry loop. Deterministic: the
// delays depend only on the policy (including jitter_seed), never on wall
// time or cross-thread interleaving.
class Backoff {
 public:
  explicit Backoff(const RetryPolicy& policy)
      : policy_(policy), rng_(policy.jitter_seed) {}

  // Delay to charge before the next attempt; advances the sequence.
  [[nodiscard]] vt::Duration next() {
    double base = static_cast<double>(policy_.initial_backoff.ns());
    for (unsigned i = 0; i < attempt_; ++i) {
      base *= policy_.multiplier;
    }
    base = std::min(base, static_cast<double>(policy_.max_backoff.ns()));
    ++attempt_;
    if (policy_.jitter > 0.0) {
      base *= rng_.next_double(1.0 - policy_.jitter, 1.0 + policy_.jitter);
    }
    return vt::Duration::nanos(
        std::max<std::int64_t>(0, static_cast<std::int64_t>(base)));
  }

 private:
  RetryPolicy policy_;
  Rng rng_;
  unsigned attempt_ = 0;
};

}  // namespace bf
