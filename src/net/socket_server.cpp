#include "net/socket_server.hpp"

#include <algorithm>
#include <utility>

#include "common/serialize.hpp"

namespace praxi::net {

namespace {

/// Reader/accept threads wake at least this often to check the stop flag,
/// so close() never waits on a silent peer.
constexpr std::uint32_t kPollSliceMs = 50;
constexpr std::size_t kReadChunkBytes = 64 * 1024;

constexpr const char* kFramesHelp = "Frames moved by the socket transport";
constexpr const char* kBytesHelp = "Bytes moved by the socket transport";

const char* frame_type_label(FrameType type) {
  switch (type) {
    case FrameType::kHello:
      return "hello";
    case FrameType::kData:
      return "data";
    case FrameType::kAck:
      return "ack";
    case FrameType::kBusy:
      return "busy";
  }
  return "unknown";
}

}  // namespace

struct SocketServer::Instruments {
  obs::Counter* rx_frames[5] = {};  ///< indexed by FrameType value
  obs::Counter* tx_frames[5] = {};
  obs::Counter* rx_bytes = nullptr;
  obs::Counter* tx_bytes = nullptr;
  obs::Counter* overloads = nullptr;
  obs::Counter* protocol_errors = nullptr;
  obs::Gauge* connections = nullptr;
  obs::Gauge* queue_depth = nullptr;

  Instruments() {
    auto& registry = obs::MetricsRegistry::global();
    for (const auto type : {FrameType::kHello, FrameType::kData,
                            FrameType::kAck, FrameType::kBusy}) {
      const auto i = static_cast<std::size_t>(type);
      rx_frames[i] = &registry.counter(
          "praxi_net_rx_frames_total", kFramesHelp,
          {{"role", "server"}, {"type", frame_type_label(type)}});
      tx_frames[i] = &registry.counter(
          "praxi_net_tx_frames_total", kFramesHelp,
          {{"role", "server"}, {"type", frame_type_label(type)}});
    }
    rx_bytes = &registry.counter("praxi_net_rx_bytes_total", kBytesHelp,
                                 {{"role", "server"}});
    tx_bytes = &registry.counter("praxi_net_tx_bytes_total", kBytesHelp,
                                 {{"role", "server"}});
    overloads = &registry.counter(
        "praxi_net_overload_total",
        "Frames refused with kBusy because the ingest queue was full",
        {{"role", "server"}});
    protocol_errors = &registry.counter(
        "praxi_net_protocol_errors_total",
        "Connections dropped for violating the frame protocol",
        {{"role", "server"}});
    connections = &registry.gauge("praxi_net_server_connections",
                                  "Agent connections currently open");
    queue_depth = &registry.gauge("praxi_net_server_queue_depth",
                                  "Report frames awaiting drain()");
  }
};

SocketServer::SocketServer(SocketServerConfig config)
    : config_(config),
      listener_(TcpListener::bind_loopback(config.port)),
      port_(listener_.port()),
      instruments_(std::make_shared<const Instruments>()) {
  // praxi-lint: allow(naked-thread: blocking accept loop)
  accept_thread_ = std::thread([this] { accept_loop(); });
}

SocketServer::~SocketServer() { close(); }

void SocketServer::send(std::string) {
  throw service::TransportError(
      "SocketServer is the receiving end; agents send through SocketClient");
}

void SocketServer::accept_loop() {
  while (!stopping_.load(std::memory_order_acquire)) {
    reap_connections(/*join_all=*/false);
    std::optional<TcpStream> stream;
    try {
      stream = listener_.accept(kPollSliceMs);
      // praxi-lint: allow(data-plane-catch: recorded in protocol_errors_)
    } catch (const service::TransportError&) {
      protocol_errors_.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    if (!stream) continue;

    auto conn = std::make_unique<Connection>();
    conn->stream = std::move(*stream);
    Connection* raw = conn.get();
    open_connections_.fetch_add(1, std::memory_order_relaxed);
    instruments_->connections->add(1.0);
    // praxi-lint: allow(naked-thread: blocking per-connection reads)
    raw->reader = std::thread([this, raw] { reader_loop(*raw); });
    common::LockGuard lock(connections_mutex_);
    connections_.push_back(std::move(conn));
  }
}

void SocketServer::reap_connections(bool join_all) {
  std::vector<std::unique_ptr<Connection>> finished;
  {
    common::LockGuard lock(connections_mutex_);
    auto split = std::stable_partition(
        connections_.begin(), connections_.end(), [&](const auto& conn) {
          return !join_all && !conn->done.load(std::memory_order_acquire);
        });
    finished.assign(std::make_move_iterator(split),
                    std::make_move_iterator(connections_.end()));
    connections_.erase(split, connections_.end());
  }
  for (auto& conn : finished) {
    conn->stream.shutdown_both();
    if (conn->reader.joinable()) conn->reader.join();
  }
}

void SocketServer::reader_loop(Connection& conn) {
  FrameDecoder decoder(config_.transport.max_frame_bytes);
  const std::uint32_t slice =
      std::min(config_.transport.io_timeout_ms, kPollSliceMs);
  std::string chunk;
  bool alive = true;
  while (alive && !stopping_.load(std::memory_order_acquire)) {
    chunk.clear();
    const IoStatus status =
        conn.stream.read_some(chunk, kReadChunkBytes, slice);
    if (status == IoStatus::kTimeout) continue;
    if (status == IoStatus::kClosed) break;
    rx_bytes_.fetch_add(chunk.size(), std::memory_order_relaxed);
    instruments_->rx_bytes->inc(chunk.size());
    decoder.feed(chunk);
    try {
      while (alive) {
        auto frame = decoder.next();
        if (!frame) break;  // partial frame: wait for more bytes
        rx_frames_.fetch_add(1, std::memory_order_relaxed);
        instruments_->rx_frames[static_cast<std::size_t>(frame->type)]->inc();
        alive = handle_frame(conn, *frame);
      }
      // praxi-lint: allow(data-plane-catch: recorded in protocol_errors_)
    } catch (const SerializeError&) {
      // Unrecoverable framing violation (oversize length, unknown type):
      // drop the connection; the client reconnects and resends unacked
      // frames from scratch.
      protocol_errors_.fetch_add(1, std::memory_order_relaxed);
      instruments_->protocol_errors->inc();
      alive = false;
    }
  }
  conn.stream.shutdown_both();
  open_connections_.fetch_sub(1, std::memory_order_relaxed);
  instruments_->connections->sub(1.0);
  conn.done.store(true, std::memory_order_release);
}

bool SocketServer::handle_frame(Connection& conn, Frame& frame) {
  const auto protocol_error = [&] {
    protocol_errors_.fetch_add(1, std::memory_order_relaxed);
    instruments_->protocol_errors->inc();
    return false;
  };

  switch (frame.type) {
    case FrameType::kHello: {
      if (conn.hello_seen) return protocol_error();  // second hello
      if (frame.payload.empty() || frame.payload.size() > 256)
        return protocol_error();
      conn.hello_seen = true;
      return true;
    }
    case FrameType::kData: {
      if (!conn.hello_seen) return protocol_error();  // hello first

      FrameType reply = FrameType::kAck;
      {
        common::LockGuard lock(state_mutex_);
        if (queue_.size() >= config_.transport.queue_bound) {
          reply = FrameType::kBusy;
        } else {
          queue_.push_back(std::move(frame.payload));
          instruments_->queue_depth->set(static_cast<double>(queue_.size()));
        }
      }
      if (reply == FrameType::kBusy) {
        overloads_.fetch_add(1, std::memory_order_relaxed);
        instruments_->overloads->inc();
      }

      const std::string wire = encode_frame(reply, frame.sequence);
      const IoStatus status =
          conn.stream.write_all(wire, config_.transport.io_timeout_ms);
      if (status != IoStatus::kOk) return false;  // client will reconnect
      instruments_->tx_frames[static_cast<std::size_t>(reply)]->inc();
      instruments_->tx_bytes->inc(wire.size());
      return true;
    }
    case FrameType::kAck:
    case FrameType::kBusy:
      return protocol_error();  // server-to-client frames only
  }
  return protocol_error();
}

std::vector<std::string> SocketServer::drain() {
  std::vector<std::string> out;
  {
    common::LockGuard lock(state_mutex_);
    out.assign(std::make_move_iterator(queue_.begin()),
               std::make_move_iterator(queue_.end()));
    queue_.clear();
    instruments_->queue_depth->set(0.0);
  }
  delivered_.fetch_add(out.size(), std::memory_order_relaxed);
  for (const auto& payload : out) {
    delivered_bytes_.fetch_add(payload.size(), std::memory_order_relaxed);
  }
  return out;
}

void SocketServer::ack(std::string_view) {
  acked_.fetch_add(1, std::memory_order_relaxed);
}

void SocketServer::close() {
  if (closed_.exchange(true)) return;
  stopping_.store(true, std::memory_order_release);
  if (accept_thread_.joinable()) accept_thread_.join();
  // Accept thread is gone; connections_ is ours now. Readers poll the stop
  // flag every kPollSliceMs, and the shutdown below unblocks them sooner.
  reap_connections(/*join_all=*/true);
  listener_.close();
}

service::TransportStats SocketServer::stats() const {
  service::TransportStats s;
  s.delivered_frames = delivered_.load(std::memory_order_relaxed);
  s.delivered_bytes = delivered_bytes_.load(std::memory_order_relaxed);
  s.acked_frames = acked_.load(std::memory_order_relaxed);
  s.overloads = overloads_.load(std::memory_order_relaxed);
  s.malformed_frames = protocol_errors_.load(std::memory_order_relaxed);
  // Every busy bounce refused an intact frame without settling it.
  s.rejected_frames = s.overloads;
  {
    common::LockGuard lock(state_mutex_);
    s.pending_frames = queue_.size();
  }
  // The server never sends reports, but rx totals are useful under the
  // shared names: count what arrived as "sent to us".
  s.sent_frames = rx_frames_.load(std::memory_order_relaxed);
  s.sent_bytes = rx_bytes_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace praxi::net
