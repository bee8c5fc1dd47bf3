// Discovery server: the central half of the distributed service.
//
// Drains agent reports off the bus, classifies each changeset with a Praxi
// model, and maintains:
//   * a fleet inventory (agent -> discovered applications, with the window
//     each discovery came from) — the paper's "searching for a specific
//     piece of software among a large set of VMs or containers";
//   * a TagsetStore of the labeled tagsets operators fed back (Praxi's only
//     retained training artifact, §V-C) — classified reports keep none;
//   * the model itself, which operators can improve ONLINE by feeding back
//     confirmed labels — the incremental-training loop of §V-D, impossible
//     in the DeltaSherlock architecture without a full retrain.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/annotations.hpp"
#include "common/runtime_config.hpp"
#include "common/sync.hpp"
#include "core/discovery_service.hpp"
#include "core/praxi.hpp"
#include "core/tagset_store.hpp"
#include "obs/metrics.hpp"
#include "service/transport.hpp"
#include "service/wal.hpp"

namespace praxi::service {

struct ServerConfig {
  /// Quantity inference settings applied to every incoming window.
  core::DiscoveryServiceConfig quantity;
  /// Cross-cutting runtime knobs, re-applied to the embedded model at
  /// construction (the embedding host wins — common/runtime_config.hpp).
  /// num_threads: workers for classifying a drained batch (0 = one per
  /// hardware thread, 1 = sequential). Reports are independent, so
  /// discoveries are identical at every thread count.
  common::RuntimeConfig runtime{.num_threads = 0};
  /// Wire knobs for the endpoint this server drains (timeouts, backoff,
  /// ingest queue bound). The server itself only reads these when its host
  /// constructs the endpoint (e.g. cli `serve` builds a net::SocketServer
  /// from them); precedence follows docs/API.md — defaults < host < CLI.
  TransportConfig transport;
  /// Durable ingest (docs/DURABILITY.md): when non-empty, a WriteAheadLog
  /// in this directory is replayed at construction — BEFORE the host opens
  /// any transport listener — restoring every agent's dedup floor, and each
  /// settled report is logged + fsynced before its frame is acknowledged.
  /// Empty (the default) keeps the dedup state in-memory only.
  std::string wal_dir;
  /// WAL segment size that triggers snapshot+truncate compaction.
  std::size_t wal_segment_bytes = 4u << 20;
  /// Soft bound on resident per-agent SequenceTrackers (0 = unbounded).
  /// When exceeded after a settle() call, trackers of agents that were
  /// idle this batch and hold no out-of-order sequences are folded down to
  /// their floor (a single u64 per agent — the irreducible dedup state,
  /// which can never be dropped without re-admitting duplicates) and
  /// restored transparently when the agent reappears.
  std::size_t max_resident_agents = 0;
};

/// Ingest outcomes of one agent, or summed fleet-wide. An agent whose
/// malformed count climbs is corrupting data in flight (or running a broken
/// build) — a signal a single global counter cannot attribute. Server
/// state, not telemetry: counts advance with metrics disabled, and the
/// registry carries only the per-server sums (docs/OBSERVABILITY.md).
struct AgentIngestStats {
  std::uint64_t processed = 0;         ///< reports parsed and classified
  std::uint64_t malformed = 0;         ///< corrupt frames (checksum, bounds…)
  std::uint64_t version_mismatch = 0;  ///< structurally valid, wrong version
  std::uint64_t duplicate = 0;  ///< redelivered (agent, sequence), skipped
  std::uint64_t overflow = 0;   ///< held-set cap reached; frame NOT settled,
                                ///< left for the wire to redeliver

  bool operator==(const AgentIngestStats&) const = default;
};

/// One processed report.
struct Discovery {
  std::string agent_id;
  std::uint64_t sequence = 0;
  std::int64_t open_time_ms = 0;
  std::int64_t close_time_ms = 0;
  std::size_t record_count = 0;
  std::size_t inferred_quantity = 0;
  std::vector<std::string> applications;
  /// Snapshot epoch that classified this report (docs/API.md): the whole
  /// batch it arrived in was classified against this one pinned epoch, so
  /// operators can attribute every discovery to a named model version even
  /// while learn_feedback() keeps publishing newer ones.
  std::uint64_t model_epoch = 0;
};

class DiscoveryServer {
 public:
  /// `model` must be trained.
  explicit DiscoveryServer(core::Praxi model, ServerConfig config = {});

  /// Which frames of one settle() batch to acknowledge, and what they
  /// discovered.
  struct Settlement {
    /// One per non-noise window, in arrival order.
    std::vector<Discovery> discoveries;
    /// Indices into the batch of the frames the caller must acknowledge,
    /// in settle order.
    std::vector<std::size_t> acks;
  };

  /// Classifies `frames` as one batch, concurrently
  /// (ServerConfig::num_threads), and settles it. Malformed messages are
  /// counted and skipped, never fatal. Each report's tags are extracted
  /// exactly once, predicted from, and dropped: store() keeps only the
  /// labeled tagsets learn_feedback() learned from. The whole batch is
  /// classified against ONE pinned model snapshot (core/model_snapshot.hpp)
  /// whose epoch every returned Discovery carries.
  ///
  /// The wire may deliver at-least-once; processing is exactly-once by each
  /// agent's report sequence — a redelivered (agent, sequence) is counted
  /// as outcome "duplicate" and skipped. Every dispositioned frame is in
  /// `acks` EXCEPT malformed ones (a mangled frame may be a damaged copy of
  /// a report whose intact resend must still be accepted) and held-set
  /// overflow rejections (outcome "overflow", left unacked for redelivery
  /// once the window drains).
  ///
  /// Settle order (docs/DURABILITY.md): a report's acceptance — tracker
  /// mutation, WAL append — is recorded only after classification
  /// succeeded, and the batch is fsynced (one fsync per call when a WAL is
  /// configured) before this returns, so every frame in `acks` is durable.
  /// When it throws, the caller acknowledges no frame of the batch. A crash
  /// at any point therefore either leaves a frame unacked (its redelivery
  /// is deduplicated by the durable floor) or finds it settled — never
  /// both-lost and re-learned.
  Settlement settle(std::span<const std::string> frames)
      PRAXI_EXCLUDES(state_mutex_);

  /// drain() → settle() → ack() of each settled frame on `transport` (the
  /// in-memory MessageBus or a net::SocketServer), all under the state
  /// lock. Returns the batch's discoveries.
  std::vector<Discovery> process(Transport& transport)
      PRAXI_EXCLUDES(state_mutex_);

  /// Fleet inventory: applications discovered per agent so far. By value:
  /// a reference could not outlive the state lock.
  std::map<std::string, std::set<std::string>> inventory() const
      PRAXI_EXCLUDES(state_mutex_) {
    common::LockGuard lock(state_mutex_);
    return inventory_;
  }

  /// Agents on which `application` has been discovered (compliance query).
  std::vector<std::string> agents_running(const std::string& application) const
      PRAXI_EXCLUDES(state_mutex_);

  /// Operator feedback: a labeled changeset improves the model online —
  /// new applications become discoverable without any retraining. Its
  /// tagset is added to store().
  void learn_feedback(const fs::Changeset& labeled_changeset)
      PRAXI_EXCLUDES(state_mutex_);

  /// Model/store references. Mutations happen under the state lock inside
  /// process()/learn_feedback(); callers of these accessors must be
  /// quiescent with respect to those (the store is additionally internally
  /// locked, so reading it concurrently is safe).
  const core::Praxi& model() const { return model_; }
  const core::TagsetStore& store() const { return store_; }
  /// Fleet-wide ingest outcomes, including those of agents since evicted.
  AgentIngestStats totals() const PRAXI_EXCLUDES(state_mutex_) {
    common::LockGuard lock(state_mutex_);
    return totals_;
  }
  std::uint64_t processed() const { return totals().processed; }
  std::uint64_t duplicates() const { return totals().duplicate; }

  /// The durable log, when ServerConfig::wal_dir is set (else nullptr).
  const WriteAheadLog* wal() const { return wal_.get(); }
  /// Resident per-agent dedup trackers (mirrors praxi_server_agents).
  std::size_t resident_agents() const PRAXI_EXCLUDES(state_mutex_) {
    common::LockGuard lock(state_mutex_);
    return agents_.size();
  }

  /// Ingest outcomes of every resident agent that has delivered a frame
  /// (snapshot by value). Frames too corrupt to attribute are charged to
  /// kUnattributedAgent. Eviction drops an agent's row; totals() keeps it.
  std::map<std::string, AgentIngestStats> ingest_stats() const
      PRAXI_EXCLUDES(state_mutex_);
  static constexpr const char* kUnattributedAgent = "(unattributed)";

  /// Label distinguishing this server's series in the process-global
  /// metrics registry (`server="<id>"`).
  const std::string& server_label() const { return server_label_; }

 private:
  /// Everything kept per agent: the exactly-once tracker (keyed by the
  /// report's own sequence field) and the agent's ingest outcomes.
  struct AgentRecord {
    SequenceTracker tracker;
    AgentIngestStats stats;
  };
  /// Indexes reports_total_ and the matching AgentIngestStats field.
  enum class Outcome : std::size_t {
    kProcessed, kMalformed, kVersionMismatch, kDuplicate, kOverflow
  };

  /// The agent's record, creating it (its tracker restored from the evicted
  /// floor if one exists) on first use.
  AgentRecord& record_for(const std::string& agent_id)
      PRAXI_REQUIRES(state_mutex_);
  /// record_for() the frame's peek_identity() sender, or kUnattributedAgent.
  AgentRecord& sender_of(std::string_view wire) PRAXI_REQUIRES(state_mutex_);
  /// Charges one outcome to `record`, to totals_, and to the registry.
  void charge(AgentRecord& record, Outcome outcome)
      PRAXI_REQUIRES(state_mutex_);
  /// Full durable dedup state — resident trackers plus evicted floors —
  /// for WAL compaction snapshots.
  WalState current_wal_state() const PRAXI_REQUIRES(state_mutex_);
  void evict_idle_agents(const std::set<std::string_view>& active_agents)
      PRAXI_REQUIRES(state_mutex_);
  void update_state_gauges() PRAXI_REQUIRES(state_mutex_);
  /// The one batch body behind settle() and process().
  Settlement settle_locked(std::span<const std::string> frames)
      PRAXI_REQUIRES(state_mutex_);

  /// Outermost lock of the whole hierarchy (rank kServerState): held across
  /// a full settle()/process()/learn_feedback() body, i.e. while the thread
  /// pool, metrics registry, tagset store, WAL, and transport locks are
  /// taken beneath it (docs/CONCURRENCY.md). Serializes ingest state AND
  /// model_/store_ mutation.
  mutable common::Mutex state_mutex_{"server_state",
                                     common::LockRank::kServerState};

  core::Praxi model_;
  ServerConfig config_;
  core::TagsetStore store_;
  std::map<std::string, std::set<std::string>> inventory_
      PRAXI_GUARDED_BY(state_mutex_);
  std::string server_label_;
  std::map<std::string, AgentRecord> agents_ PRAXI_GUARDED_BY(state_mutex_);
  AgentIngestStats totals_ PRAXI_GUARDED_BY(state_mutex_);
  /// Floors of evicted idle agents (ServerConfig::max_resident_agents):
  /// one u64 per agent instead of a whole tracker.
  std::map<std::string, std::uint64_t> evicted_floors_
      PRAXI_GUARDED_BY(state_mutex_);
  std::unique_ptr<WriteAheadLog> wal_;
  /// praxi_server_reports_total{server, outcome}.
  std::array<obs::Counter*, 5> reports_total_{};
  obs::Histogram* process_seconds_ = nullptr;
  obs::Counter* discoveries_total_ = nullptr;
  obs::Gauge* agents_gauge_ = nullptr;
  obs::Gauge* held_gauge_ = nullptr;
  obs::Gauge* model_epoch_gauge_ = nullptr;
};

namespace testhooks {
/// When true, settle() throws after classification but before ANY settle
/// effect (tracker mutation, WAL append, inventory commit, ack) —
/// simulating a crash in the worst window. Drained-but-unacked frames are
/// redelivered by the at-least-once wire and must then process cleanly,
/// exactly once.
inline bool simulate_crash_before_commit = false;
}  // namespace testhooks

}  // namespace praxi::service
