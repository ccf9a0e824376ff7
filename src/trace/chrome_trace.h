// Chrome-trace / Perfetto export of board occupancy and request spans.
//
// Converts the Device Managers' per-client busy intervals and the
// distributed request spans (trace/span.h) into the chrome://tracing
// (Perfetto-compatible) JSON event format: one track per board / actor, one
// complete ("X") event per interval, timestamps in microseconds of modeled
// time. Request-traced spans additionally carry their trace/span/parent ids
// as event args and are linked across tracks with flow ("s"/"f") arrows.
// Drop the file into chrome://tracing or ui.perfetto.dev to see how tenants
// interleave on the shared FPGAs and where each request spent its time.
//
// Everything here is deterministic for a fixed scenario seed: spans are
// sorted on a total order before export, so to_json() is byte-identical
// across runs no matter which threads recorded the spans (pinned by the
// golden-trace tests).
#pragma once

#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "trace/span.h"
#include "vt/time.h"

namespace bf::trace {

// One hop of a request's critical path: the span that exclusively owned a
// slice of the end-to-end interval, and how much of it (its self time).
struct CriticalPathHop {
  std::string name;
  std::string track;
  vt::Duration self;
};

// Per-request latency attribution. The hops' self times sum exactly to
// `total` (the root span's duration, i.e. the gateway-reported end-to-end
// latency) by construction.
struct CriticalPath {
  std::uint64_t trace_id = 0;
  vt::Duration total;
  std::vector<CriticalPathHop> hops;
};

class TraceBuilder {
 public:
  explicit TraceBuilder(std::uint64_t seed = 0) : seed_(seed) {}

  // Seed mixed into every trace id minted while this builder is installed.
  [[nodiscard]] std::uint64_t seed() const { return seed_; }

  // Thread-safe: spans arrive from app threads, devmgr workers and board
  // completions concurrently.
  void add(Span span);

  // Pulls every client occupancy interval of the manager's board within
  // [from, to] onto a track named after the board. Intervals straddling a
  // window edge are clipped to the window, not dropped. Duck-typed over the
  // manager (needs busy_snapshot() and board().id()) so bf::trace stays
  // below bf::devmgr in the dependency order.
  template <typename Manager>
  void add_board_occupancy(Manager& manager, vt::Time from, vt::Time to) {
    for (const auto& busy : manager.busy_snapshot(from, to)) {
      Span span;
      span.track = manager.board().id();
      span.name = busy.client_id.empty() ? "(unattributed)" : busy.client_id;
      span.start = vt::max(busy.start, from);
      span.end = busy.end < to ? busy.end : to;
      add(std::move(span));
    }
  }

  [[nodiscard]] std::size_t span_count() const;

  // Snapshot of the recorded spans in export order (the deterministic sort
  // used by to_json), regardless of recording interleaving.
  [[nodiscard]] std::vector<Span> spans() const;

  // Exclusive per-hop latency attribution for one traced request: sweeps the
  // root span's interval and charges each elementary segment to the deepest
  // span covering it, then aggregates per hop in order of first appearance.
  // NotFound if no span carries `trace_id`.
  [[nodiscard]] Result<CriticalPath> critical_path(
      std::uint64_t trace_id) const;

  // chrome://tracing JSON ({"traceEvents": [...]}).
  [[nodiscard]] std::string to_json() const;

  Status write_file(const std::string& path) const;

 private:
  [[nodiscard]] std::vector<Span> sorted_locked() const;

  const std::uint64_t seed_;
  mutable std::mutex mutex_;
  // Chunked append-only storage: record() under load never reallocates the
  // whole history (a vector would move every span's strings on growth).
  std::deque<Span> spans_;
};

// Escapes a string for embedding in a JSON literal (exposed for tests).
std::string json_escape(const std::string& value);

}  // namespace bf::trace
