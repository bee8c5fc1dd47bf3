#include "net/socket_client.hpp"

#include <algorithm>
#include <chrono>
#include <thread>
#include <utility>

#include "common/serialize.hpp"

namespace praxi::net {

namespace {

using service::TransportError;

constexpr std::size_t kReadChunkBytes = 64 * 1024;
/// Read slice while pumping: short enough to keep the pump loop live,
/// long enough to actually sleep instead of spinning.
constexpr std::uint32_t kReplySliceMs = 5;
/// Frames written per write_pass before yielding to read_replies. Without
/// this bound a deep backlog starves ack reads: both TCP buffers fill (the
/// server's reply writer then stalls too) and, with injected faults that
/// recur more often than the backlog length, a pass never completes and
/// acks are never read at all.
constexpr std::size_t kWriteBurstFrames = 16;

}  // namespace

struct SocketClient::Instruments {
  obs::Counter* tx_frames_data = nullptr;
  obs::Counter* tx_frames_hello = nullptr;
  obs::Counter* tx_bytes = nullptr;
  obs::Counter* rx_frames_ack = nullptr;
  obs::Counter* rx_frames_busy = nullptr;
  obs::Counter* rx_bytes = nullptr;
  obs::Counter* retransmits = nullptr;
  obs::Counter* reconnects = nullptr;
  obs::Counter* connect_failures = nullptr;
  obs::Histogram* ack_seconds = nullptr;

  Instruments() {
    auto& registry = obs::MetricsRegistry::global();
    constexpr const char* kFramesHelp =
        "Frames moved by the socket transport";
    constexpr const char* kBytesHelp = "Bytes moved by the socket transport";
    tx_frames_data =
        &registry.counter("praxi_net_tx_frames_total", kFramesHelp,
                          {{"role", "client"}, {"type", "data"}});
    tx_frames_hello =
        &registry.counter("praxi_net_tx_frames_total", kFramesHelp,
                          {{"role", "client"}, {"type", "hello"}});
    tx_bytes = &registry.counter("praxi_net_tx_bytes_total", kBytesHelp,
                                 {{"role", "client"}});
    rx_frames_ack =
        &registry.counter("praxi_net_rx_frames_total", kFramesHelp,
                          {{"role", "client"}, {"type", "ack"}});
    rx_frames_busy =
        &registry.counter("praxi_net_rx_frames_total", kFramesHelp,
                          {{"role", "client"}, {"type", "busy"}});
    rx_bytes = &registry.counter("praxi_net_rx_bytes_total", kBytesHelp,
                                 {{"role", "client"}});
    retransmits = &registry.counter(
        "praxi_net_retransmits_total",
        "Frames re-sent after a reconnect or overdue ack",
        {{"role", "client"}});
    reconnects = &registry.counter(
        "praxi_net_reconnects_total",
        "Connections re-established after a loss", {{"role", "client"}});
    connect_failures = &registry.counter(
        "praxi_net_connect_failures_total",
        "Connection attempts that failed (retried under backoff)",
        {{"role", "client"}});
    ack_seconds = &registry.histogram(
        "praxi_net_ack_seconds",
        "Latency from frame write to its acknowledgment",
        obs::latency_buckets(), {{"role", "client"}});
  }
};

SocketClient::SocketClient(SocketClientConfig config)
    : config_(std::move(config)),
      decoder_(config_.transport.max_frame_bytes),
      jitter_(config_.transport.jitter_seed, config_.client_id),
      backoff_ms_(static_cast<double>(config_.transport.backoff_initial_ms)),
      instruments_(std::make_shared<const Instruments>()) {}

SocketClient::~SocketClient() { close(); }

std::chrono::milliseconds SocketClient::next_backoff() {
  const double jitter_span = config_.transport.backoff_jitter;
  const double factor =
      1.0 + jitter_span * (2.0 * jitter_.uniform() - 1.0);
  const auto delay = std::chrono::milliseconds(
      std::max<std::int64_t>(1, static_cast<std::int64_t>(
                                    backoff_ms_ * factor)));
  backoff_ms_ =
      std::min(backoff_ms_ * config_.transport.backoff_multiplier,
               static_cast<double>(config_.transport.backoff_max_ms));
  return delay;
}

void SocketClient::send(std::string wire_bytes) {
  common::LockGuard lock(mutex_);
  if (closed_) throw TransportError("send() on a closed SocketClient");
  if (unacked_.size() >= config_.transport.resend_buffer_bound) {
    throw TransportError(
        "SocketClient resend buffer full (" +
        std::to_string(unacked_.size()) +
        " unacknowledged frames); flush() before sending more");
  }
  PendingFrame pending;
  pending.sequence = next_sequence_++;
  pending.wire = encode_frame(FrameType::kData, pending.sequence, wire_bytes);
  sent_frames_.fetch_add(1, std::memory_order_relaxed);
  sent_bytes_.fetch_add(wire_bytes.size(), std::memory_order_relaxed);
  unacked_.push_back(std::move(pending));
  pending_count_.store(unacked_.size(), std::memory_order_relaxed);
  pump(Clock::now());  // one opportunistic pass; flush() settles the rest
}

bool SocketClient::flush(std::uint32_t timeout_ms) {
  common::LockGuard lock(mutex_);
  return pump(Clock::now() + std::chrono::milliseconds(timeout_ms));
}

void SocketClient::close() {
  common::LockGuard lock(mutex_);
  if (closed_) return;
  pump(Clock::now() + std::chrono::milliseconds(config_.transport.io_timeout_ms));
  disconnect();
  closed_ = true;
}

bool SocketClient::pump(Clock::time_point deadline) {
  for (;;) {
    if (unacked_.empty()) return true;
    const auto now = Clock::now();

    if (!stream_.valid()) {
      if (now >= next_connect_attempt_) {
        try_connect();
      } else if (now < deadline) {
        const auto wait = std::min(
            next_connect_attempt_, deadline) - now;
        std::this_thread::sleep_for(
            std::max(wait, std::chrono::steady_clock::duration(
                               std::chrono::milliseconds(1))));
      }
    }
    if (stream_.valid() && Clock::now() >= busy_until_) write_pass();
    if (stream_.valid()) {
      // Clamp the read slice to the pump deadline: send()'s opportunistic
      // pass (deadline already reached) must poll, not sleep 5ms per frame
      // — that block was the whole-fleet send ceiling (~200 frames/s per
      // agent) before bench/load_cluster measured it.
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
          deadline - Clock::now());
      read_replies(static_cast<std::uint32_t>(std::clamp<std::int64_t>(
          left.count(), 0, kReplySliceMs)));
    }
    check_ack_timeouts();

    if (unacked_.empty()) return true;
    if (Clock::now() >= deadline) return false;
  }
}

void SocketClient::try_connect() {
  ++connect_attempts_;
  try {
    if (config_.connect_fault && config_.connect_fault(connect_attempts_))
      throw TransportError("injected connect fault");
    TcpStream stream = TcpStream::connect(
        config_.host, config_.port, config_.transport.connect_timeout_ms);
    const std::string hello =
        encode_frame(FrameType::kHello, 0, config_.client_id);
    if (stream.write_all(hello, config_.transport.io_timeout_ms) !=
        IoStatus::kOk) {
      throw TransportError("hello write failed");
    }
    stream_ = std::move(stream);
    decoder_.reset();
    busy_until_ = {};
    backoff_ms_ = static_cast<double>(config_.transport.backoff_initial_ms);
    instruments_->tx_frames_hello->inc();
    instruments_->tx_bytes->inc(hello.size());
    if (ever_connected_) {
      reconnects_.fetch_add(1, std::memory_order_relaxed);
      instruments_->reconnects->inc();
    }
    ever_connected_ = true;
    // praxi-lint: allow(data-plane-catch: recorded in connect_failures)
  } catch (const TransportError&) {
    connect_failures_.fetch_add(1, std::memory_order_relaxed);
    instruments_->connect_failures->inc();
    next_connect_attempt_ = Clock::now() + next_backoff();
  }
}

void SocketClient::disconnect() {
  stream_.close();
  decoder_.reset();
  // Everything in flight on the dead connection must go again: the
  // DiscoveryServer deduplicates by the report's (agent, sequence), so
  // over-sending is safe and under-sending is not.
  std::uint64_t resent = 0;
  for (auto& pending : unacked_) {
    if (pending.written || pending.offset > 0) {
      pending.written = false;
      pending.offset = 0;
      ++resent;
    }
  }
  if (resent > 0) {
    retransmits_.fetch_add(resent, std::memory_order_relaxed);
    instruments_->retransmits->inc(resent);
  }
}

void SocketClient::write_pass() {
  std::size_t burst = 0;
  for (auto& pending : unacked_) {
    if (pending.written) continue;
    if (++burst > kWriteBurstFrames) return;  // yield to read_replies
    if (pending.offset == 0) {
      // Fault hooks fire once per fresh frame attempt; a resumed partial
      // write is the tail of an attempt already judged.
      WriteFault fault;
      if (config_.write_fault) fault = config_.write_fault(write_index_++);
      switch (fault.kind) {
        case WriteFault::Kind::kDisconnectBeforeWrite:
          disconnect();
          next_connect_attempt_ = Clock::now() + next_backoff();
          return;
        case WriteFault::Kind::kTruncateThenClose:
          stream_.write_prefix(pending.wire, fault.keep_bytes,
                               config_.transport.io_timeout_ms);
          // A torn write is still a transmission attempt; marking it
          // written here lets disconnect() count its inevitable resend.
          pending.written = true;
          disconnect();
          next_connect_attempt_ = Clock::now() + next_backoff();
          return;
        case WriteFault::Kind::kDrop:
          // Bytes vanish but the frame looks sent: recovery must come from
          // the ack timeout, exactly like a frame lost in the network.
          pending.written = true;
          pending.sent_at = Clock::now();
          continue;
        case WriteFault::Kind::kNone:
          break;
      }
    }
    const std::string_view rest =
        std::string_view(pending.wire).substr(pending.offset);
    std::size_t wrote = 0;
    const IoStatus status =
        stream_.write_some(rest, wrote, config_.transport.io_timeout_ms);
    pending.offset += wrote;
    if (status == IoStatus::kOk) {
      pending.written = true;
      pending.offset = 0;
      pending.sent_at = Clock::now();
      instruments_->tx_frames_data->inc();
      instruments_->tx_bytes->inc(pending.wire.size());
      continue;
    }
    if (status == IoStatus::kClosed) {
      disconnect();
      next_connect_attempt_ = Clock::now() + next_backoff();
    }
    return;  // kTimeout: resume from offset after reading replies
  }
}

void SocketClient::read_replies(std::uint32_t timeout_ms) {
  std::string chunk;
  const IoStatus status =
      stream_.read_some(chunk, kReadChunkBytes, timeout_ms);
  if (status == IoStatus::kClosed) {
    disconnect();
    next_connect_attempt_ = Clock::now() + next_backoff();
    return;
  }
  if (status != IoStatus::kOk) return;
  instruments_->rx_bytes->inc(chunk.size());
  decoder_.feed(chunk);
  try {
    for (;;) {
      auto frame = decoder_.next();
      if (!frame) break;
      handle_reply(*frame);
    }
    // praxi-lint: allow(data-plane-catch: recorded in connect_failures)
  } catch (const SerializeError&) {
    // A server speaking garbage is indistinguishable from wire corruption:
    // drop the connection and resend over a fresh one.
    connect_failures_.fetch_add(1, std::memory_order_relaxed);
    instruments_->connect_failures->inc();
    disconnect();
    next_connect_attempt_ = Clock::now() + next_backoff();
  }
}

void SocketClient::handle_reply(const Frame& frame) {
  auto it = std::find_if(unacked_.begin(), unacked_.end(),
                         [&](const PendingFrame& pending) {
                           return pending.sequence == frame.sequence;
                         });
  switch (frame.type) {
    case FrameType::kAck: {
      instruments_->rx_frames_ack->inc();
      if (it == unacked_.end()) return;  // ack for an already-settled frame
      if (it->written) {
        const auto elapsed =
            std::chrono::duration<double>(Clock::now() - it->sent_at);
        instruments_->ack_seconds->observe(elapsed.count());
      }
      unacked_.erase(it);
      pending_count_.store(unacked_.size(), std::memory_order_relaxed);
      acked_frames_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    case FrameType::kBusy: {
      // Server ingest queue full: the frame was NOT enqueued. Hold off,
      // then resend it (and anything queued behind it).
      instruments_->rx_frames_busy->inc();
      busy_received_.fetch_add(1, std::memory_order_relaxed);
      if (it != unacked_.end()) it->written = false;
      busy_until_ = Clock::now() + next_backoff();
      return;
    }
    case FrameType::kHello:
    case FrameType::kData:
      throw SerializeError("unexpected frame type from server");
  }
}

void SocketClient::check_ack_timeouts() {
  if (!stream_.valid()) return;
  const auto limit =
      std::chrono::milliseconds(config_.transport.ack_timeout_ms);
  const auto now = Clock::now();
  for (const auto& pending : unacked_) {
    if (pending.written && now - pending.sent_at > limit) {
      // The ack is overdue: the frame (or its ack) was lost. Treat the
      // link as suspect — reconnect and resend.
      disconnect();
      next_connect_attempt_ = now;  // no backoff: the link was "up"
      return;
    }
  }
}

service::TransportStats SocketClient::stats() const {
  service::TransportStats s;
  s.sent_frames = sent_frames_.load(std::memory_order_relaxed);
  s.sent_bytes = sent_bytes_.load(std::memory_order_relaxed);
  s.acked_frames = acked_frames_.load(std::memory_order_relaxed);
  s.retransmits = retransmits_.load(std::memory_order_relaxed);
  s.reconnects = reconnects_.load(std::memory_order_relaxed);
  s.overloads = busy_received_.load(std::memory_order_relaxed);
  // Each busy reply is one of this client's frames the server refused
  // without settling (it stays buffered here until re-accepted).
  s.rejected_frames = s.overloads;
  s.malformed_frames = connect_failures_.load(std::memory_order_relaxed);
  s.pending_frames = pending_count_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace praxi::net
