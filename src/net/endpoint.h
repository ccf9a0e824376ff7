// In-process RPC fabric: server endpoints, bidirectional connections,
// virtual-time stamped frames.
//
// This is the gRPC analogue: unary calls for context/information methods and
// a server->client notification stream for command-queue completions (gRPC
// bidi streaming in the real system). Frames never sleep — real threads
// exchange them immediately — but every frame carries modeled send/arrival
// timestamps computed by the TransportCost model.
//
// Conservative virtual-time protocol. Each connection is one source in the
// server's vt::Gate. Its published bound is the minimum of
//   * the client's own bound (last send, or infinite while blocked),
//   * the arrival stamps of frames still in the server inbox, and
//   * the arrival stamp of the frame the dispatcher is currently processing,
// so the Device Manager worker can never execute past work that is still in
// flight. While the client is blocked, a server reply/notification nudges the
// client bound to its arrival time (lookahead: the client cannot emit again
// before the frame that wakes it lands).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/call_options.h"
#include "common/spsc_ring.h"
#include "common/status.h"
#include "net/transport.h"
#include "proto/messages.h"
#include "trace/span.h"
#include "vt/cursor.h"
#include "vt/gate.h"

namespace bf::net {

struct Frame {
  enum class Kind { kRequest, kReply, kNotify };
  Kind kind = Kind::kRequest;
  proto::Method method = proto::Method::kOpenSession;
  std::uint64_t correlation = 0;
  Bytes payload;
  vt::Time send_time;
  vt::Time arrival_time;
  // Request trace context (gRPC-metadata analogue). Carried alongside the
  // payload, NOT serialized: wire_size() ignores it, so tracing never
  // perturbs modeled transport costs.
  trace::SpanContext trace;

  // HTTP/2 + gRPC framing overhead per message.
  static constexpr std::size_t kOverheadBytes = 64;
  [[nodiscard]] std::size_t wire_size() const {
    return payload.size() + kOverheadBytes;
  }
};

class ServerEndpoint;

// Both per-connection frame queues have exactly one consumer (the server
// dispatcher drains the inbox, the client pump drains the notification
// stream), so they ride the lock-light SPSC queue: ring push + sequence
// bump per frame, futex wake only when the consumer is parked, no deque node
// allocation. Producers (app thread on the inbox; dispatcher ack + device
// worker completions on the stream) serialize on the queue's internal
// producer lock.
using FrameQueue = SpscQueue<Frame, 64>;

// A server->client completion staged by the device worker. Worker threads
// accumulate these per task and deliver them through notify_batch: one
// consumer wake per task instead of one per op (gate wake bounds are still
// anchored per completion at stage time, so virtual time is unchanged).
struct Completion {
  proto::Method method = proto::Method::kOpComplete;
  std::uint64_t correlation = 0;
  Bytes payload;
  vt::Time server_time;
};

// One client<->server connection. The client side is driven by the
// application thread (sends) and the remote library's connection thread
// (notification drain); the server side by a dispatcher thread.
class Connection : public std::enable_shared_from_this<Connection> {
 public:
  Connection(ServerEndpoint* endpoint, std::string peer, TransportCost cost,
             vt::Gate::Source source, vt::Time connect_time);
  ~Connection();

  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  [[nodiscard]] const std::string& peer() const { return peer_; }
  [[nodiscard]] const TransportCost& cost() const { return cost_; }

  // ---- Client side ----------------------------------------------------------

  // Unary call: charges encode cost to the cursor, blocks until the reply,
  // advances the cursor to the reply's arrival time.
  Result<Frame> call(proto::Method method, Bytes payload, vt::Cursor& cursor);

  // Unary call with failure handling. A finite options.timeout arms a
  // VT deadline: the call completes with DEADLINE_EXCEEDED instead of
  // blocking forever when the reply lands past the deadline (observed at
  // the reply's arrival stamp) or never lands at all (abandoned after
  // options.wedge_grace of wall time, completed at the deadline stamp; a
  // late reply then hits the unknown-call drop path). options.retry re-sends
  // on retryable codes with capped, seeded-jitter backoff charged to the
  // cursor — only pass a retry policy for idempotent methods
  // (proto::is_idempotent). Default options reproduce the plain overload
  // bit-for-bit. `trace` rides on every attempt's frame as metadata (zero
  // wire cost) so the server can parent its handler span.
  Result<Frame> call(proto::Method method, Bytes payload, vt::Cursor& cursor,
                     const CallOptions& options,
                     const trace::SpanContext& trace = {});

  // One-way async request (command-queue methods). Charges encode cost,
  // stamps and delivers the frame.
  Status send(proto::Method method, std::uint64_t correlation, Bytes payload,
              vt::Cursor& cursor);

  // Server->client notification stream (drained by the connection thread).
  FrameQueue& notifications() { return notifications_; }

  // Gate protocol for blocking waits outside call() (e.g. event waits).
  // The application thread registers the tag it is about to sleep on; the
  // pump thread calls wake_announce when the matching frame lands, which
  // atomically moves the gate bound to the wake time *before* the sleeper
  // can resume — closing the wake race without stalling the worker.
  enum class WaitTag { kNone, kReply, kEvent };
  void prepare_wait(WaitTag tag, std::uint64_t id);
  void wake_announce(WaitTag tag, std::uint64_t id, vt::Time at);
  void announce(vt::Time t);

  // Client-initiated close: wakes the server dispatcher (inbox closed) and
  // unregisters the gate source.
  void close();
  [[nodiscard]] bool closed() const { return closed_.load(); }

  // ---- Server side ----------------------------------------------------------

  // Blocking pop of the next client frame; nullopt when the connection
  // closed and drained. The previously returned frame counts as "being
  // processed" (holds the gate bound) until the next call.
  std::optional<Frame> next_request();

  // Marks the frame most recently returned by next_request as fully
  // processed (its effects are visible to the worker). Called implicitly by
  // the next next_request; call explicitly before long blocking operations.
  void done_processing();

  // Replies to a unary request. server_time is the modeled time at which the
  // reply is emitted.
  void reply(const Frame& request, Bytes payload, vt::Time server_time);

  // Pushes a notification frame (op enqueued / op complete). Returns
  // UNAVAILABLE when the stream is already closed (client gone) so the
  // server can account undeliverable completions instead of silently
  // dropping them.
  Status notify(proto::Method method, std::uint64_t correlation, Bytes payload,
                vt::Time server_time);

  // Delivers a task's worth of staged completions with a single consumer
  // wake. Per-completion semantics (fault sites, wake_announce ordering,
  // frame stamps) are identical to calling notify() N times; only the
  // number of futex wakes changes, which is invisible to virtual time.
  // The batch vector is consumed (cleared) on success so callers can pool
  // it.
  Status notify_batch(std::vector<Completion>& completions);

 private:
  friend class ServerEndpoint;

  // One attempt of the deadline-aware call(); the retry loop lives in the
  // public overload.
  Result<Frame> call_attempt(proto::Method method, Bytes payload,
                             vt::Cursor& cursor, const CallOptions& options,
                             const trace::SpanContext& trace);

  // Stamps a client->server frame: send time from the cursor, in-order
  // arrival (TCP semantics: arrivals on one connection are monotonic).
  Frame make_request(proto::Method method, std::uint64_t correlation,
                     Bytes payload, vt::Cursor& cursor);
  Frame make_server_frame(Frame::Kind kind, proto::Method method,
                          std::uint64_t correlation, Bytes payload,
                          vt::Time server_time);

  // Bound arbitration -------------------------------------------------------
  void client_announce(vt::Time t);
  void on_pop(vt::Time arrival);
  void on_processed();
  void publish_locked();

  ServerEndpoint* endpoint_;
  std::string peer_;
  TransportCost cost_;
  vt::Gate::Source source_;

  FrameQueue inbox_;          // client -> server
  FrameQueue notifications_;  // server -> client stream

  std::mutex pending_mutex_;
  std::condition_variable pending_cv_;
  std::map<std::uint64_t, std::optional<Frame>> pending_replies_;
  std::uint64_t next_call_id_ = 1;

  // Bound state (guarded by bound_mutex_).
  std::mutex bound_mutex_;
  vt::Time client_bound_;
  WaitTag wait_tag_ = WaitTag::kNone;
  std::uint64_t wait_id_ = 0;
  std::deque<vt::Time> inflight_arrivals_;
  vt::Time processing_ = vt::Time::infinite();
  vt::Time last_arrival_;  // per-connection in-order delivery floor
  vt::Time last_send_;

  std::atomic<bool> closed_{false};
};

// A listening service address. The owner (Device Manager, Registry) installs
// a handler that is invoked for every new connection; handlers typically
// spawn a dispatcher thread.
class ServerEndpoint {
 public:
  explicit ServerEndpoint(std::string address);
  ~ServerEndpoint();

  ServerEndpoint(const ServerEndpoint&) = delete;
  ServerEndpoint& operator=(const ServerEndpoint&) = delete;

  [[nodiscard]] const std::string& address() const { return address_; }
  [[nodiscard]] vt::Gate& gate() { return gate_; }

  void set_handler(std::function<void(std::shared_ptr<Connection>)> handler);

  // Client-side connect. The cursor provides the connect timestamp and is
  // charged the connection setup cost.
  Result<std::shared_ptr<Connection>> connect(const std::string& peer,
                                              TransportCost cost,
                                              vt::Cursor& cursor);

  // Closes every connection and shuts the gate down.
  void shutdown();
  [[nodiscard]] bool is_shutdown() const { return shutdown_.load(); }

  [[nodiscard]] std::size_t connection_count() const;

 private:
  std::string address_;
  vt::Gate gate_;
  mutable std::mutex mutex_;
  std::function<void(std::shared_ptr<Connection>)> handler_;
  std::vector<std::weak_ptr<Connection>> connections_;
  std::atomic<bool> shutdown_{false};
};

}  // namespace bf::net
