#include "service/server.hpp"

#include <atomic>
#include <stdexcept>

#include "common/serialize.hpp"
#include "obs/scoped_timer.hpp"

namespace praxi::service {

namespace {

/// Servers share one process-global registry, so each instance claims a
/// distinct `server` label value to keep its series (and its ingest-stats
/// view) independent of every other instance in the process — tests spin up
/// many servers.
std::string next_server_label() {
  static std::atomic<std::uint64_t> next{0};
  return std::to_string(next.fetch_add(1));
}

constexpr const char* kReportsHelp =
    "Agent reports ingested, by agent and outcome";

}  // namespace

DiscoveryServer::DiscoveryServer(core::Praxi model, ServerConfig config)
    : model_(std::move(model)),
      config_(config),
      server_label_(next_server_label()) {
  if (!model_.trained())
    throw std::invalid_argument("DiscoveryServer: model must be trained");
  // Embedding host wins (common/runtime_config.hpp): the server's runtime
  // overrides whatever the model was constructed or restored with.
  model_.set_runtime(config_.runtime);

  auto& registry = obs::MetricsRegistry::global();
  process_seconds_ = &registry.histogram(
      "praxi_server_process_seconds",
      "Latency of one process() drain-classify-commit cycle",
      obs::latency_buckets(), {{"server", server_label_}});
  discoveries_total_ = &registry.counter(
      "praxi_server_discoveries_total",
      "Discoveries committed to the fleet inventory",
      {{"server", server_label_}});
  agents_gauge_ =
      &registry.gauge("praxi_server_agents",
                      "Resident per-agent dedup trackers (after eviction)",
                      {{"server", server_label_}});
  held_gauge_ = &registry.gauge(
      "praxi_server_held_sequences",
      "Out-of-order sequences held above the dedup floors, fleet-wide",
      {{"server", server_label_}});
  model_epoch_gauge_ = &registry.gauge(
      "praxi_server_model_epoch",
      "Snapshot epoch the server most recently classified against",
      {{"server", server_label_}});
  model_epoch_gauge_->set(static_cast<double>(model_.epoch()));

  // Durable ingest (docs/DURABILITY.md): replay happens HERE, inside the
  // constructor, so by the time the host can open a transport listener the
  // dedup floor of every agent is already restored.
  common::LockGuard lock(state_mutex_);
  if (!config_.wal_dir.empty()) {
    WalConfig wal_config;
    wal_config.dir = config_.wal_dir;
    wal_config.segment_bytes = config_.wal_segment_bytes;
    wal_config.server_label = server_label_;
    wal_ = std::make_unique<WriteAheadLog>(wal_config);
    for (const auto& [agent_id, tracker] : wal_->restored()) {
      sequences_.emplace(agent_id,
                         SequenceTracker(tracker.floor, tracker.held,
                                         config_.transport.max_held_sequences));
    }
  }
  update_state_gauges();
}

DiscoveryServer::AgentCounters& DiscoveryServer::counters_for(
    const std::string& agent_id) {
  auto it = agent_counters_.find(agent_id);
  if (it != agent_counters_.end()) return it->second;

  auto& registry = obs::MetricsRegistry::global();
  auto labels = [&](const char* outcome) {
    return obs::Labels{{"server", server_label_},
                       {"agent", agent_id},
                       {"outcome", outcome}};
  };
  AgentCounters counters;
  counters.processed = &registry.counter("praxi_server_reports_total",
                                         kReportsHelp, labels("processed"));
  counters.malformed = &registry.counter("praxi_server_reports_total",
                                         kReportsHelp, labels("malformed"));
  counters.version_mismatch = &registry.counter(
      "praxi_server_reports_total", kReportsHelp, labels("version_mismatch"));
  counters.duplicate = &registry.counter("praxi_server_reports_total",
                                         kReportsHelp, labels("duplicate"));
  counters.overflow = &registry.counter("praxi_server_reports_total",
                                        kReportsHelp, labels("overflow"));
  return agent_counters_.emplace(agent_id, counters).first->second;
}

SequenceTracker& DiscoveryServer::tracker_for(const std::string& agent_id) {
  auto it = sequences_.find(agent_id);
  if (it != sequences_.end()) return it->second;
  const auto evicted = evicted_floors_.find(agent_id);
  if (evicted != evicted_floors_.end()) {
    SequenceTracker restored(evicted->second, {},
                             config_.transport.max_held_sequences);
    evicted_floors_.erase(evicted);
    return sequences_.emplace(agent_id, std::move(restored)).first->second;
  }
  return sequences_
      .emplace(agent_id,
               SequenceTracker(config_.transport.max_held_sequences))
      .first->second;
}

WalState DiscoveryServer::current_wal_state() const {
  WalState state;
  for (const auto& [agent_id, floor] : evicted_floors_) {
    state[agent_id].floor = floor;
  }
  for (const auto& [agent_id, tracker] : sequences_) {
    WalTrackerState& entry = state[agent_id];
    entry.floor = tracker.floor();
    entry.held = tracker.held_sequences();
  }
  return state;
}

void DiscoveryServer::evict_idle_agents(
    const std::set<std::string_view>& active_agents) {
  const std::size_t bound = config_.max_resident_agents;
  if (bound == 0) return;
  for (auto it = sequences_.begin();
       it != sequences_.end() && sequences_.size() > bound;) {
    // Only idle, gap-free trackers fold losslessly to their floor.
    if (it->second.held() > 0 || active_agents.count(it->first) > 0) {
      ++it;
      continue;
    }
    if (it->second.floor() > 0) evicted_floors_[it->first] = it->second.floor();
    it = sequences_.erase(it);
  }
}

void DiscoveryServer::update_state_gauges() {
  std::size_t held = 0;
  for (const auto& [agent_id, tracker] : sequences_) held += tracker.held();
  agents_gauge_->set(static_cast<double>(sequences_.size()));
  held_gauge_->set(static_cast<double>(held));
}

DiscoveryServer::AgentCounters& DiscoveryServer::counters_for_wire(
    std::string_view wire) {
  std::string agent_id = ChangesetReport::peek_agent_id(wire);
  return counters_for(agent_id.empty() ? kUnattributedAgent
                                       : std::move(agent_id));
}

std::uint64_t DiscoveryServer::processed() const {
  common::LockGuard lock(state_mutex_);
  std::uint64_t total = 0;
  for (const auto& [agent, counters] : agent_counters_) {
    total += counters.processed->value();
  }
  return total;
}

std::uint64_t DiscoveryServer::malformed() const {
  common::LockGuard lock(state_mutex_);
  std::uint64_t total = 0;
  for (const auto& [agent, counters] : agent_counters_) {
    total += counters.malformed->value();
  }
  return total;
}

std::uint64_t DiscoveryServer::version_mismatched() const {
  common::LockGuard lock(state_mutex_);
  std::uint64_t total = 0;
  for (const auto& [agent, counters] : agent_counters_) {
    total += counters.version_mismatch->value();
  }
  return total;
}

std::uint64_t DiscoveryServer::duplicates() const {
  common::LockGuard lock(state_mutex_);
  std::uint64_t total = 0;
  for (const auto& [agent, counters] : agent_counters_) {
    total += counters.duplicate->value();
  }
  return total;
}

std::uint64_t DiscoveryServer::overflows() const {
  common::LockGuard lock(state_mutex_);
  std::uint64_t total = 0;
  for (const auto& [agent, counters] : agent_counters_) {
    total += counters.overflow->value();
  }
  return total;
}

std::map<std::string, AgentIngestStats> DiscoveryServer::ingest_stats() const {
  common::LockGuard lock(state_mutex_);
  std::map<std::string, AgentIngestStats> stats;
  for (const auto& [agent, counters] : agent_counters_) {
    AgentIngestStats& s = stats[agent];
    s.processed = counters.processed->value();
    s.malformed = counters.malformed->value();
    s.version_mismatch = counters.version_mismatch->value();
    s.duplicate = counters.duplicate->value();
    s.overflow = counters.overflow->value();
  }
  return stats;
}

std::vector<Discovery> DiscoveryServer::process(Transport& transport) {
  obs::ScopedTimer process_timer(*process_seconds_);
  // Outermost lock (rank kServerState): held for the whole
  // drain-classify-commit cycle; every deeper lock (store, pool, registry,
  // WAL, transport) nests beneath it. docs/CONCURRENCY.md.
  common::LockGuard lock(state_mutex_);

  // Pin ONE model epoch for the whole batch (docs/API.md): every report in
  // this cycle is classified against the same immutable snapshot and
  // settled carrying its epoch number, so a batch is internally consistent
  // no matter what publishes while it is in flight.
  const core::ModelSnapshotPtr snap = model_.snapshot();
  model_epoch_gauge_->set(static_cast<double>(snap->epoch()));

  // Phase 1 (sequential): parse + screen. Quantity inference is cheap
  // relative to classification, so only the survivors go into the batch.
  // Acceptance is only *previewed* here — the tracker is mutated at settle
  // time (phase 3) — so a throw during classification leaves no trace and
  // the unacked frames' resends are processed fresh (docs/DURABILITY.md).
  //
  // Frames decode to validated views into `wires`, which lives until this
  // call returns: ingest screens and extracts straight from the wire bytes
  // and never builds an fs::Changeset.
  struct PendingReport {
    Discovery discovery;
    fs::ChangesetView changeset;
    const std::string* wire = nullptr;
    std::size_t n = 1;
    bool classify = false;     ///< non-empty, non-noise: goes into the batch
    std::size_t batch_index = 0;  ///< position among classified items
  };
  std::vector<PendingReport> pending;
  const std::vector<std::string> wires = transport.drain();
  // Frames to settle with transport.ack() once the batch commits. Every
  // disposition settles EXCEPT malformed (a mangled frame may be a damaged
  // copy of a report whose intact resend must still be accepted, so only
  // the transport's own dedup — not this ack — may suppress it) and
  // held-set overflow (never settled, so the wire redelivers it).
  std::vector<const std::string*> settled;
  settled.reserve(wires.size());
  // Identities staged this batch, to catch within-batch redelivery while
  // the trackers stay untouched. Views into `wires`.
  std::set<std::pair<std::string_view, std::uint64_t>> staged;
  // Agents that showed up in this batch — exempt from idle eviction below.
  std::set<std::string_view> active_agents;
  for (const std::string& wire : wires) {
    ReportView report;
    try {
      report = ChangesetReport::view_wire(wire);
    } catch (const VersionError&) {
      // Structurally sound frame from an agent speaking another format
      // version (fleet mid-upgrade) — distinct from corruption. Resending
      // identical bytes cannot help, so the frame still settles.
      counters_for_wire(wire).version_mismatch->inc();
      settled.push_back(&wire);
      continue;
    } catch (const SerializeError&) {
      counters_for_wire(wire).malformed->inc();
      continue;
    }
    std::string agent_id(report.agent_id);
    active_agents.insert(report.agent_id);
    const auto verdict = tracker_for(agent_id).preview(report.sequence);
    if (verdict == SequenceTracker::Admit::kDuplicate ||
        staged.count({report.agent_id, report.sequence}) > 0) {
      // At-least-once wire redelivered a report this server already
      // processed (retry after a lost ack, a duplicating network, or an
      // agent restart replaying its journal). Exactly-once processing:
      // count it, settle it, skip it.
      counters_for(agent_id).duplicate->inc();
      settled.push_back(&wire);
      continue;
    }
    if (verdict == SequenceTracker::Admit::kReject) {
      // The agent's held-set cap is full (badly reordering or adversarial
      // wire). The frame is NOT settled — no ack — so it is redelivered
      // once the out-of-order window drains.
      counters_for(agent_id).overflow->inc();
      continue;
    }
    staged.insert({report.agent_id, report.sequence});

    PendingReport item;
    item.wire = &wire;
    item.discovery.agent_id = std::move(agent_id);
    item.discovery.sequence = report.sequence;
    item.discovery.open_time_ms = report.changeset.open_time_ms;
    item.discovery.close_time_ms = report.changeset.close_time_ms;
    item.discovery.record_count = report.changeset.size();
    item.discovery.model_epoch = snap->epoch();
    if (!report.changeset.empty()) {
      item.discovery.inferred_quantity = core::DiscoveryService::infer_quantity(
          report.changeset, config_.quantity);
      if (item.discovery.inferred_quantity > 0) {  // not background noise
        item.classify = true;
        item.n = snap->mode() == core::LabelMode::kSingleLabel
                     ? 1
                     : item.discovery.inferred_quantity;
        item.changeset = std::move(report.changeset);
      }
    }
    pending.push_back(std::move(item));
  }

  // Phase 2 (concurrent): one tag extraction per report, reused for both
  // prediction and the store — the wire bytes are not needed after this
  // point (Praxi never needs to regenerate features, §V-C).
  std::vector<const fs::ChangesetView*> changesets;
  std::vector<std::size_t> counts;
  changesets.reserve(pending.size());
  counts.reserve(pending.size());
  for (auto& item : pending) {
    if (!item.classify) continue;
    item.batch_index = changesets.size();
    changesets.push_back(&item.changeset);
    counts.push_back(item.n);
  }
  auto tagsets = snap->extract_tags(
      std::span<const fs::ChangesetView* const>(changesets), model_.pool());
  auto predictions =
      snap->predict_tags(std::span<const columbus::TagSet>(tagsets),
                         core::TopN(counts), model_.pool());

  if (testhooks::simulate_crash_before_commit) {
    throw std::runtime_error(
        "simulated crash between classification and settle commit");
  }

  // Phase 3 (sequential): settle in arrival order so the store and
  // inventory are deterministic regardless of thread count. Only now is
  // acceptance recorded (tracker + WAL), so everything before this line is
  // retryable.
  std::vector<Discovery> discoveries;
  discoveries.reserve(pending.size());
  for (auto& item : pending) {
    const std::string& agent_id = item.discovery.agent_id;
    if (tracker_for(agent_id).admit(item.discovery.sequence) !=
        SequenceTracker::Admit::kAccept) {
      // Out-of-order admissions earlier in this batch filled the held-set
      // cap after this frame was screened; same policy as a phase-1
      // reject: no ack, the wire redelivers.
      counters_for(agent_id).overflow->inc();
      continue;
    }
    if (wal_) {
      wal_->append(agent_id, item.discovery.sequence,
                   SettleOutcome::kProcessed);
    }
    counters_for(agent_id).processed->inc();
    settled.push_back(item.wire);
    if (!item.classify) continue;
    Discovery discovery = std::move(item.discovery);
    discovery.applications = std::move(predictions[item.batch_index]);
    store_.add(std::move(tagsets[item.batch_index]));
    for (const auto& app : discovery.applications) {
      inventory_[discovery.agent_id].insert(app);
    }
    discoveries.push_back(std::move(discovery));
  }
  discoveries_total_->inc(discoveries.size());

  // Settle-order contract (docs/DURABILITY.md): process → WAL append → ONE
  // batched fsync → ack. A crash before commit() leaves every frame of the
  // batch unacked (redelivered and deduplicated by the durable floor); a
  // crash after it finds them durably settled.
  if (wal_) wal_->commit();
  for (const std::string* wire : settled) transport.ack(*wire);

  evict_idle_agents(active_agents);
  update_state_gauges();
  if (wal_ && wal_->wants_compaction()) wal_->compact(current_wal_state());
  return discoveries;
}

std::vector<std::string> DiscoveryServer::agents_running(
    const std::string& application) const {
  common::LockGuard lock(state_mutex_);
  std::vector<std::string> agents;
  for (const auto& [agent_id, apps] : inventory_) {
    if (apps.count(application) > 0) agents.push_back(agent_id);
  }
  return agents;
}

void DiscoveryServer::learn_feedback(const fs::Changeset& labeled_changeset) {
  common::LockGuard lock(state_mutex_);
  const auto& labels = labeled_changeset.labels();
  if (labels.empty())
    throw std::invalid_argument(
        "DiscoveryServer: feedback changeset must carry labels");
  // Validate cardinality against the model's mode BEFORE any learning: a
  // multi-labeled feedback sample fed to a single-label (OAA) model would
  // otherwise corrupt its label space.
  if (model_.mode() == core::LabelMode::kSingleLabel && labels.size() != 1) {
    throw std::invalid_argument(
        "DiscoveryServer: single-label model cannot learn from feedback "
        "carrying " +
        std::to_string(labels.size()) + " labels");
  }
  const auto tagset = model_.extract_tags(labeled_changeset);
  model_.learn_one(tagset);
  store_.add(tagset);
  // learn_one publishes per the snapshot_publish_every cadence; reflect
  // whatever epoch is now current (unchanged when the cadence batches).
  model_epoch_gauge_->set(static_cast<double>(model_.epoch()));
}

}  // namespace praxi::service
