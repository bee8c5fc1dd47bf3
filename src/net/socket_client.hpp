// TCP sending endpoint used by collection agents (docs/SERVICE.md).
//
// send() never blocks on the network's health: frames enter a bounded
// resend buffer and are pumped toward the server opportunistically, with
// every wait bounded by a timeout. The client owns the whole reliability
// story on its side of the wire:
//
//   * connect with a timeout, retried under bounded exponential backoff
//     with deterministic jitter (common/rng.hpp — reproducible tests);
//   * a hello frame opens every connection, naming the client;
//   * frames stay buffered until the matching kAck arrives; a reconnect
//     resends everything unacknowledged (at-least-once delivery — the
//     DiscoveryServer's per-agent SequenceTracker makes processing
//     exactly-once);
//   * an ack overdue past ack_timeout_ms marks the link suspect and forces
//     a reconnect-and-resend (recovers from silently lost frames);
//   * a kBusy response (server ingest queue full) backs off before
//     resending — graceful degradation instead of a retry storm.
//
// Internally serialized: send()/flush()/close() take the client mutex, so
// any thread may drive the client (one at a time makes progress; IO waits
// happen under the lock). stats() stays lock-free via atomics.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/annotations.hpp"
#include "common/rng.hpp"
#include "common/sync.hpp"
#include "net/frame.hpp"
#include "net/socket.hpp"
#include "obs/metrics.hpp"
#include "service/transport.hpp"

namespace praxi::net {

/// Deterministic fault injected into one client write (tests only). The
/// hook receives a monotonically increasing write index and decides the
/// fate of that write — so "drop every 17th frame" is reproducible.
struct WriteFault {
  enum class Kind {
    kNone,
    kDrop,               ///< pretend the write happened; bytes vanish
    kTruncateThenClose,  ///< write keep_bytes of the frame, then disconnect
    kDisconnectBeforeWrite,
  };
  Kind kind = Kind::kNone;
  std::size_t keep_bytes = 0;  ///< kTruncateThenClose: prefix length kept
};

struct SocketClientConfig {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  /// Names this client in the hello frame and seeds its backoff jitter.
  /// Agents use their agent id.
  std::string client_id = "agent";
  service::TransportConfig transport;
  /// Test hooks; empty = no injected faults.
  std::function<WriteFault(std::uint64_t write_index)> write_fault;
  /// Returns true to fail connection attempt N (1-based) before any
  /// syscall — deterministic connect-path fault injection.
  std::function<bool(std::uint64_t attempt)> connect_fault;
};

class SocketClient final : public service::Transport {
 public:
  explicit SocketClient(SocketClientConfig config);
  ~SocketClient() override;

  SocketClient(const SocketClient&) = delete;
  SocketClient& operator=(const SocketClient&) = delete;

  /// Buffers the report and pumps the wire once (bounded by io_timeout_ms).
  /// Throws service::TransportError after close() or when the resend
  /// buffer bound is hit (backpressure: the caller must flush()).
  void send(std::string wire_bytes) override;

  /// The client end is send-only.
  std::vector<std::string> drain() override { return {}; }
  void ack(std::string_view) override {}

  /// Final best-effort flush, then disconnect; idempotent.
  void close() override;

  service::TransportStats stats() const override;

  /// Pumps until every buffered frame is acknowledged or timeout_ms
  /// elapses. Returns true when the buffer drained empty.
  bool flush(std::uint32_t timeout_ms) PRAXI_EXCLUDES(mutex_);

 private:
  using Clock = std::chrono::steady_clock;

  struct PendingFrame {
    std::uint64_t sequence = 0;
    std::string wire;  ///< encoded kData frame, ready to (re)send
    Clock::time_point sent_at{};
    /// Bytes of wire already on the stream. A partially written frame must
    /// resume here — restarting it would desync the server's decoder.
    std::size_t offset = 0;
    bool written = false;
  };

  bool pump(Clock::time_point deadline) PRAXI_REQUIRES(mutex_);
  void try_connect() PRAXI_REQUIRES(mutex_);
  void disconnect() PRAXI_REQUIRES(mutex_);
  /// Writes unwritten pending frames, at most one bounded burst per call so
  /// the pump interleaves ack reads under a deep backlog.
  void write_pass() PRAXI_REQUIRES(mutex_);
  void read_replies(std::uint32_t timeout_ms) PRAXI_REQUIRES(mutex_);
  void handle_reply(const Frame& frame) PRAXI_REQUIRES(mutex_);
  void check_ack_timeouts() PRAXI_REQUIRES(mutex_);
  std::chrono::milliseconds next_backoff() PRAXI_REQUIRES(mutex_);

  /// Serializes the whole connection/resend-buffer state machine.
  mutable common::Mutex mutex_{"socket_client",
                               common::LockRank::kSocketClient};

  SocketClientConfig config_;
  TcpStream stream_ PRAXI_GUARDED_BY(mutex_);
  FrameDecoder decoder_ PRAXI_GUARDED_BY(mutex_);
  Rng jitter_ PRAXI_GUARDED_BY(mutex_);
  double backoff_ms_ PRAXI_GUARDED_BY(mutex_);
  Clock::time_point next_connect_attempt_ PRAXI_GUARDED_BY(mutex_) =
      Clock::time_point{};
  Clock::time_point busy_until_ PRAXI_GUARDED_BY(mutex_) =
      Clock::time_point{};
  std::deque<PendingFrame> unacked_ PRAXI_GUARDED_BY(mutex_);
  std::uint64_t next_sequence_ PRAXI_GUARDED_BY(mutex_) = 0;
  std::uint64_t write_index_ PRAXI_GUARDED_BY(mutex_) = 0;
  std::uint64_t connect_attempts_ PRAXI_GUARDED_BY(mutex_) = 0;
  bool ever_connected_ PRAXI_GUARDED_BY(mutex_) = false;
  bool closed_ PRAXI_GUARDED_BY(mutex_) = false;

  // Cross-thread-readable totals (stats()).
  std::atomic<std::size_t> pending_count_{0};
  std::atomic<std::uint64_t> sent_frames_{0};
  std::atomic<std::uint64_t> sent_bytes_{0};
  std::atomic<std::uint64_t> acked_frames_{0};
  std::atomic<std::uint64_t> retransmits_{0};
  std::atomic<std::uint64_t> reconnects_{0};
  std::atomic<std::uint64_t> busy_received_{0};
  std::atomic<std::uint64_t> connect_failures_{0};

  struct Instruments;
  std::shared_ptr<const Instruments> instruments_;
};

}  // namespace praxi::net
