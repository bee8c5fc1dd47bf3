// TCP ingest endpoint for the discovery server (docs/SERVICE.md).
//
// Accepts agent connections on 127.0.0.1, runs one reader thread per
// connection (plus one accept thread), and drains complete kData frames
// into a bounded in-memory queue that `DiscoveryServer::process` consumes
// through the `service::Transport` interface — the server code cannot tell
// this apart from the in-memory MessageBus.
//
// Delivery semantics (the at-least-once / exactly-once split):
//   * A kData frame is acknowledged the moment it is enqueued — delivery
//     into this process is settled, so the client stops resending even if
//     classification happens seconds later.
//   * When the queue is full the server answers kBusy instead of buffering
//     without bound: the client backs off and resends.
//   * This endpoint keeps no dedup state. A redelivered frame (client
//     resent after a lost ack) is enqueued again; the consumer's per-agent
//     SequenceTracker (DiscoveryServer) counts it as a duplicate and
//     settles it, exactly as for any other at-least-once Transport.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/annotations.hpp"
#include "common/sync.hpp"
#include "net/frame.hpp"
#include "net/socket.hpp"
#include "obs/metrics.hpp"
#include "service/transport.hpp"

namespace praxi::net {

struct SocketServerConfig {
  /// 0 = kernel-assigned ephemeral port; read it back via port().
  std::uint16_t port = 0;
  service::TransportConfig transport;
};

class SocketServer final : public service::Transport {
 public:
  /// Binds and starts the accept thread. Throws service::TransportError
  /// when the port cannot be bound.
  explicit SocketServer(SocketServerConfig config = {});
  ~SocketServer() override;

  SocketServer(const SocketServer&) = delete;
  SocketServer& operator=(const SocketServer&) = delete;

  std::uint16_t port() const { return port_; }

  /// The server end is receive-only; agents hold the sending end.
  void send(std::string wire_bytes) override;

  /// Report payloads enqueued since the last drain, in arrival order
  /// (framing stripped — the same bytes MessageBus::drain would return).
  std::vector<std::string> drain() override;

  /// Consumer settled a drained frame; bookkeeping only (the wire-level
  /// delivery ack already went out at enqueue time).
  void ack(std::string_view wire_bytes) override;

  /// Stops accepting, unblocks and joins every thread; idempotent.
  void close() override;

  service::TransportStats stats() const override;

  /// Connections currently open (accept-thread view; approximate).
  std::size_t connections() const {
    return open_connections_.load(std::memory_order_relaxed);
  }

 private:
  struct Connection {
    TcpStream stream;
    // praxi-lint: allow(naked-thread: blocking per-connection reads)
    std::thread reader;
    std::atomic<bool> done{false};
    bool hello_seen = false;  ///< reader-thread only
  };

  void accept_loop();
  void reader_loop(Connection& conn);
  /// Handles one decoded frame; returns false when the connection must be
  /// dropped (protocol violation).
  bool handle_frame(Connection& conn, Frame& frame);
  void reap_connections(bool join_all);

  SocketServerConfig config_;
  TcpListener listener_;
  std::uint16_t port_ = 0;
  // praxi-lint: allow(naked-thread: blocking accept loop)
  std::thread accept_thread_;
  std::atomic<bool> stopping_{false};
  std::atomic<bool> closed_{false};

  mutable common::Mutex state_mutex_{
      "socket_server_state", common::LockRank::kSocketServerState};
  std::deque<std::string> queue_ PRAXI_GUARDED_BY(state_mutex_);

  /// Accept thread + close(); innermost rank so either may hold it while
  /// the reader threads work under state_mutex_.
  common::Mutex connections_mutex_{
      "socket_server_connections",
      common::LockRank::kSocketServerConnections};
  std::vector<std::unique_ptr<Connection>> connections_
      PRAXI_GUARDED_BY(connections_mutex_);
  std::atomic<std::size_t> open_connections_{0};

  // Lifetime totals (stats() + mirrored into praxi_net_* instruments).
  std::atomic<std::uint64_t> rx_frames_{0};
  std::atomic<std::uint64_t> rx_bytes_{0};
  std::atomic<std::uint64_t> delivered_{0};
  std::atomic<std::uint64_t> delivered_bytes_{0};
  std::atomic<std::uint64_t> acked_{0};
  std::atomic<std::uint64_t> overloads_{0};
  std::atomic<std::uint64_t> protocol_errors_{0};

  struct Instruments;
  std::shared_ptr<const Instruments> instruments_;
};

}  // namespace praxi::net
