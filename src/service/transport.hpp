// Wire layer for the distributed discovery service.
//
// DeltaSherlock's production form had "a client/server architecture that
// enabled distributed changeset collection and processing" (paper §II-C);
// Praxi inherits the same deployment shape. This module defines the wire
// message (a serialized changeset plus agent metadata) and the abstract
// `Transport` every wire implementation satisfies:
//
//   * `MessageBus` (here) — the in-memory, single-threaded transport used
//     by simulations and unit tests. Messages still cross the "wire" as
//     bytes, so the full serialize/deserialize path is exercised per hop.
//   * `net::SocketClient` / `net::SocketServer` (src/net/) — the real TCP
//     path: length-prefixed frames, timeouts, retry with backoff,
//     reconnect-and-resend (docs/SERVICE.md).
//   * `net::FaultyTransport` — a deterministic fault-injecting decorator
//     (drops, duplicates, truncation, corruption, delay/reorder) so every
//     robustness path is unit-testable without network flakiness.
//
// `DiscoveryServer` and `CollectionAgent` program against `Transport&`
// only, so the same fleet code runs in-process or across machines.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "fs/changeset.hpp"

namespace praxi::service {

/// Wire identity of a changeset report (snapshot envelope,
/// docs/PERSISTENCE.md). Exposed so tests and ingest tooling can craft or
/// recognize report frames without private knowledge. Version 2 (written)
/// carries the changeset fields inline; version 1 (still read) carries them
/// as a nested "PCS1" snapshot, checksummed a second time.
inline constexpr std::uint32_t kChangesetReportMagic = 0x50525054U;  // "PRPT"
inline constexpr std::uint32_t kChangesetReportVersion = 2;
inline constexpr std::uint32_t kChangesetReportMinVersion = 1;

/// Best-effort (agent, sequence) read out of a wire frame without full
/// validation — see ChangesetReport::peek_identity.
struct ReportIdentity {
  std::string agent_id;
  std::uint64_t sequence = 0;
};

/// A report frame decoded in place (ChangesetReport::view_wire): the agent
/// id, labels and record paths view the frame bytes, which must outlive it.
struct ReportView {
  std::string_view agent_id;
  std::uint64_t sequence = 0;
  fs::ChangesetView changeset;
};

/// One agent-to-server report: an observation window from one instance.
struct ChangesetReport {
  std::string agent_id;
  std::uint64_t sequence = 0;  ///< per-agent monotonically increasing
  fs::Changeset changeset;

  /// Serializes into a checksummed envelope frame (format version 2).
  std::string to_wire() const;

  /// The version-1 frame older agents send. Kept so compatibility tests,
  /// the fuzz corpus and the decode bench can produce one.
  std::string to_wire_v1() const;

  /// Parses and strictly validates a frame of either version. Throws
  /// SerializeError on corruption of any kind, VersionError when the
  /// frame's format version is unsupported — never UB, a crash, or an
  /// unbounded allocation.
  static ChangesetReport from_wire(std::string_view bytes);

  /// from_wire without copying: the same validation, returning views into
  /// `bytes` (the server's ingest path). from_wire is view_wire plus a copy.
  static ReportView view_wire(std::string_view bytes);

  /// Best-effort (agent, sequence) of a frame, read without requiring the
  /// checksum or version to be valid: nullopt unless the magic matches and a
  /// plausible id can be read. Lets the server charge malformed input to
  /// the agent that sent it, the cluster route a frame to its shard, and
  /// MessageBus::ack record which report was settled.
  static std::optional<ReportIdentity> peek_identity(
      std::string_view bytes) noexcept;
};

/// Transport-layer failure an endpoint cannot absorb silently: sending on a
/// closed endpoint, exceeding the client's bounded resend buffer, or calling
/// a direction the endpoint does not implement. Control-plane by the
/// docs/API.md contract — transient network faults are NOT reported this
/// way; they are retried and surfaced through stats()/metrics.
class TransportError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Counters shared by every Transport implementation. All values are
/// lifetime totals for the endpoint (mirrored into the praxi_net_* /
/// praxi_service_* instruments where applicable).
struct TransportStats {
  std::uint64_t sent_frames = 0;       ///< producer handoffs accepted
  std::uint64_t sent_bytes = 0;
  std::uint64_t delivered_frames = 0;  ///< frames handed out via drain()
  std::uint64_t delivered_bytes = 0;
  std::uint64_t acked_frames = 0;      ///< acknowledgments observed
  std::uint64_t retransmits = 0;       ///< frames re-sent after a suspect link
  std::uint64_t reconnects = 0;        ///< connections re-established
  std::uint64_t overloads = 0;         ///< busy responses (bounded queue full)
  std::uint64_t duplicates = 0;        ///< redeliveries suppressed by dedup
  std::uint64_t malformed_frames = 0;  ///< framing-protocol violations
  /// Frames refused WITHOUT settling — busy bounces at a full queue,
  /// held-window rejects swept for redelivery. Distinct from duplicates
  /// (already settled) and malformed (never settleable): a rejected frame
  /// is intact and must be redelivered by the at-least-once wire.
  std::uint64_t rejected_frames = 0;
  std::uint64_t pending_frames = 0;    ///< queued (server) / unacked (client)
};

/// Knobs common to the socket transports, embedded by ServerConfig and the
/// client configs. Follows the docs/API.md precedence rule: struct defaults
/// < embedding host < CLI flags (last applied wins).
struct TransportConfig {
  std::uint32_t connect_timeout_ms = 1000;  ///< per connect() attempt
  std::uint32_t io_timeout_ms = 1000;       ///< per read/write poll
  std::uint32_t ack_timeout_ms = 250;   ///< unacked past this => resend path
  std::uint32_t backoff_initial_ms = 10;
  std::uint32_t backoff_max_ms = 1000;
  double backoff_multiplier = 2.0;
  double backoff_jitter = 0.2;     ///< +/- fraction applied to each delay
  std::uint64_t jitter_seed = 42;  ///< deterministic jitter stream
  std::size_t queue_bound = 1024;  ///< server ingest queue, frames
  std::size_t resend_buffer_bound = 4096;  ///< client unacked frames
  std::size_t max_frame_bytes = 16 * 1024 * 1024;
  /// Out-of-order sequences a SequenceTracker may hold above its floor
  /// before rejecting further gaps (0 = unbounded). Rejected frames are NOT
  /// settled — no ack — so the at-least-once wire redelivers them once the
  /// window drains (docs/DURABILITY.md).
  std::size_t max_held_sequences = 4096;
};

/// One end of the collection wire. An endpoint is either a producer (agents
/// call send), a consumer (the server calls drain + ack), or both (the
/// in-memory bus, which is the whole wire at once).
///
/// Contract:
///   * send() accepts an already-serialized report. Delivery is
///     at-least-once: a transport may deliver a frame twice (retry after a
///     lost ack) but must never silently lose one it accepted, unless the
///     endpoint is closed with frames still unacknowledged.
///   * drain() returns every delivered report payload, in arrival order.
///     Exactly-once *processing* on top of at-least-once delivery is the
///     consumer's job, via the per-agent `sequence` (SequenceTracker).
///   * ack(frame) tells the transport the consumer dispositioned a drained
///     frame; transports use it to stop retrying / settle bookkeeping.
///   * close() releases sockets/threads; idempotent. After close, send()
///     throws TransportError.
///   * stats() is a point-in-time snapshot, safe to call concurrently with
///     the endpoint's own threads.
class Transport {
 public:
  virtual ~Transport() = default;

  virtual void send(std::string wire_bytes) = 0;
  virtual std::vector<std::string> drain() = 0;
  virtual void ack(std::string_view wire_bytes) = 0;
  virtual void close() = 0;
  virtual TransportStats stats() const = 0;
};

/// Exactly-once acceptance filter over an at-least-once stream of per-agent
/// sequence numbers. Remembers every accepted sequence with bounded memory
/// under (mostly) in-order delivery: a contiguous prefix [0, floor) is
/// compacted to a single counter and only out-of-order sequences above the
/// floor are held individually. The held set is capped (`max_held`): once
/// full, gap-creating sequences are *rejected* — distinct from duplicates —
/// and must not be acknowledged, so the at-least-once wire redelivers them
/// after the window drains (docs/DURABILITY.md). DiscoveryServer keeps one
/// per agent, keyed by the report's own sequence field — the one dedup
/// layer every Transport relies on.
class SequenceTracker {
 public:
  SequenceTracker() = default;

  /// `max_held` = 0 means unbounded (the pre-cap behavior).
  explicit SequenceTracker(std::size_t max_held) : max_held_(max_held) {}

  /// Restores a tracker from durable state (WAL replay / compaction
  /// snapshot): every sequence below `floor` plus each entry of `held` has
  /// been accepted.
  SequenceTracker(std::uint64_t floor, const std::vector<std::uint64_t>& held,
                  std::size_t max_held)
      : floor_(floor), max_held_(max_held) {
    for (const std::uint64_t sequence : held) {
      if (sequence < floor_) continue;  // already inside the compacted prefix
      seen_.insert(sequence);
    }
    compact_floor();
  }

  /// Tri-state admission verdict. kDuplicate frames were already settled
  /// (safe to re-acknowledge); kReject frames were never settled (must NOT
  /// be acknowledged — the sender will redeliver).
  enum class Admit : std::uint8_t { kAccept, kDuplicate, kReject };

  /// Records `sequence` as settled iff the verdict is kAccept.
  Admit admit(std::uint64_t sequence) {
    const Admit verdict = preview(sequence);
    if (verdict != Admit::kAccept) return verdict;
    seen_.insert(sequence);
    compact_floor();
    return Admit::kAccept;
  }

  /// The verdict admit() would return, without recording anything. Lets a
  /// consumer screen a frame early and defer the state mutation to settle
  /// time, so a crash between screening and commit leaves no trace.
  Admit preview(std::uint64_t sequence) const {
    if (sequence < floor_ || seen_.count(sequence) > 0)
      return Admit::kDuplicate;
    if (max_held_ != 0 && sequence != floor_ && seen_.size() >= max_held_)
      return Admit::kReject;
    return Admit::kAccept;
  }

  /// Every sequence below this has been accepted.
  std::uint64_t floor() const { return floor_; }
  /// Out-of-order sequences held above the floor (memory bound indicator).
  std::size_t held() const { return seen_.size(); }
  /// The held out-of-order sequences, ascending (for durable snapshots).
  std::vector<std::uint64_t> held_sequences() const {
    return std::vector<std::uint64_t>(seen_.begin(), seen_.end());
  }

 private:
  void compact_floor() {
    while (seen_.count(floor_) > 0) {
      seen_.erase(floor_);
      ++floor_;
    }
  }

  std::uint64_t floor_ = 0;
  std::size_t max_held_ = 0;
  std::set<std::uint64_t> seen_;
};

/// In-memory transport: producer and consumer ends in one object, used by
/// single-threaded simulations (examples/distributed_fleet.cpp) and as the
/// reference implementation the socket path is tested against. ack() records
/// the report's (agent, sequence) so fault-injection tests can ask exactly
/// which reports the consumer settled (`acknowledged()`).
class MessageBus final : public Transport {
 public:
  /// Enqueues an already-serialized report (what an agent's socket would
  /// carry).
  void send(std::string wire_bytes) override;

  /// Drains every queued message, in arrival order.
  std::vector<std::string> drain() override;

  /// Records the frame's (agent, sequence) as settled; unreadable frames
  /// are counted but not attributed.
  void ack(std::string_view wire_bytes) override;

  /// Nothing to release; the bus stays usable (tests re-send after close).
  void close() override {}

  TransportStats stats() const override;

  /// Has ack() been called for a frame carrying this (agent, sequence)?
  bool acknowledged(std::string_view agent_id, std::uint64_t sequence) const;

 private:
  std::deque<std::string> queue_;
  std::set<std::pair<std::string, std::uint64_t>> acked_;
  std::uint64_t total_ = 0;
  std::uint64_t total_bytes_ = 0;
  std::uint64_t delivered_ = 0;
  std::uint64_t delivered_bytes_ = 0;
  std::uint64_t ack_calls_ = 0;
};

}  // namespace praxi::service
