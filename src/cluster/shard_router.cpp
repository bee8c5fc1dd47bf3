#include "cluster/shard_router.hpp"

#include <algorithm>
#include <chrono>
#include <deque>
#include <optional>
#include <stdexcept>

namespace praxi::cluster {

namespace detail {

/// The wire between the router and ONE shard: a queue the router (and
/// agent threads, via ShardRouter::send) feeds and the shard's
/// DiscoveryServer drains, plus the in-flight table that remembers every
/// drained frame until the shard settles it or the round ends.
///
/// Lock rank kClusterShardQueue: the shard's server calls drain()/ack()
/// while holding its own state lock (rank kServerState), the same shape as
/// the SocketServer queue one layer down (docs/CONCURRENCY.md).
class ShardTransport final : public service::Transport {
 public:
  explicit ShardTransport(std::uint32_t shard)
      : label_(std::to_string(shard)),
        mutex_name_("cluster_shard_queue_" + label_) {
    auto& registry = obs::MetricsRegistry::global();
    const obs::Labels labels{{"shard", label_}};
    routed_total_ = &registry.counter(
        "praxi_cluster_routed_total",
        "Frames routed into a shard's ingest queue.", labels);
    settled_total_ = &registry.counter(
        "praxi_cluster_settled_total",
        "Frames settled (acknowledged) by the owning shard.", labels);
    unsettled_total_ = &registry.counter(
        "praxi_cluster_unsettled_total",
        "Frames swept unsettled at round end, left for the at-least-once "
        "wire to redeliver.",
        labels);
    depth_gauge_ = &registry.gauge("praxi_cluster_queue_depth",
                                   "Frames queued for a shard.", labels);
    settle_seconds_ = &registry.histogram(
        "praxi_cluster_settle_seconds",
        "Route-to-settle latency through the owning shard (queue wait + "
        "classification + WAL fsync).",
        obs::latency_buckets());
  }

  /// One settled frame, reported back to the router's post-round sweep.
  struct Settled {
    std::string wire;
    std::string agent_id;
    std::uint64_t sequence = 0;
    bool has_identity = false;
    bool from_ingress = false;
  };
  struct Sweep {
    std::vector<Settled> settled;
    std::uint64_t dropped = 0;
  };

  // --- Router-facing producer side ---

  /// `identity` is the frame's peek_identity(), read once by the router.
  void enqueue(std::string wire,
               std::optional<service::ReportIdentity> identity,
               bool from_ingress) PRAXI_EXCLUDES(mutex_) {
    Entry entry;
    if (identity) {
      entry.agent_id = std::move(identity->agent_id);
      entry.sequence = identity->sequence;
      entry.has_identity = true;
    }
    entry.wire = std::move(wire);
    entry.from_ingress = from_ingress;
    entry.enqueued_at = std::chrono::steady_clock::now();
    common::LockGuard lock(mutex_);
    queue_.push_back(std::move(entry));
    ++enqueued_;
    routed_total_->inc();
    depth_gauge_->set(static_cast<double>(queue_.size()));
  }

  std::size_t queued() const PRAXI_EXCLUDES(mutex_) {
    common::LockGuard lock(mutex_);
    return queue_.size();
  }

  /// Router sweep after the round barrier: hands back every settled frame
  /// and drops the rest (the upstream wire redelivers them).
  Sweep sweep_round() PRAXI_EXCLUDES(mutex_) {
    common::LockGuard lock(mutex_);
    Sweep sweep;
    for (auto& entry : in_flight_) {
      if (entry.settled) {
        sweep.settled.push_back(Settled{std::move(entry.wire),
                                        std::move(entry.agent_id),
                                        entry.sequence, entry.has_identity,
                                        entry.from_ingress});
      } else {
        ++sweep.dropped;
        unsettled_total_->inc();
      }
    }
    in_flight_.clear();
    return sweep;
  }

  /// Shard crash simulation: queued and in-flight frames die with the
  /// process (they were never acknowledged upstream, so agents resend).
  std::uint64_t clear() PRAXI_EXCLUDES(mutex_) {
    common::LockGuard lock(mutex_);
    const std::uint64_t lost = queue_.size() + in_flight_.size();
    queue_.clear();
    in_flight_.clear();
    depth_gauge_->set(0.0);
    return lost;
  }

  // --- service::Transport (the shard server's side) ---

  void send(std::string) override {
    throw service::TransportError(
        "ShardTransport is receive-only; agents route through ShardRouter");
  }

  std::vector<std::string> drain() PRAXI_EXCLUDES(mutex_) override {
    common::LockGuard lock(mutex_);
    std::vector<std::string> wires;
    wires.reserve(queue_.size());
    for (auto& entry : queue_) {
      wires.push_back(entry.wire);  // copy: the table keeps the original
      delivered_ += 1;
      delivered_bytes_ += entry.wire.size();
      in_flight_.push_back(std::move(entry));
    }
    queue_.clear();
    depth_gauge_->set(0.0);
    return wires;
  }

  void ack(std::string_view wire_bytes) PRAXI_EXCLUDES(mutex_) override {
    const auto identity = service::ChangesetReport::peek_identity(wire_bytes);
    const auto now = std::chrono::steady_clock::now();
    common::LockGuard lock(mutex_);
    for (auto& entry : in_flight_) {
      if (entry.settled) continue;
      const bool match =
          (identity && entry.has_identity &&
           entry.agent_id == identity->agent_id &&
           entry.sequence == identity->sequence) ||
          (!identity && entry.wire == wire_bytes);
      if (!match) continue;
      entry.settled = true;
      ++settled_;
      settled_total_->inc();
      settle_seconds_->observe(
          std::chrono::duration<double>(now - entry.enqueued_at).count());
      return;
    }
  }

  void close() override {}

  service::TransportStats stats() const PRAXI_EXCLUDES(mutex_) override {
    common::LockGuard lock(mutex_);
    service::TransportStats stats;
    stats.sent_frames = enqueued_;
    stats.delivered_frames = delivered_;
    stats.delivered_bytes = delivered_bytes_;
    stats.acked_frames = settled_;
    stats.pending_frames = queue_.size() + in_flight_.size();
    return stats;
  }

 private:
  struct Entry {
    std::string wire;
    std::string agent_id;
    std::uint64_t sequence = 0;
    bool has_identity = false;
    bool from_ingress = false;
    bool settled = false;
    std::chrono::steady_clock::time_point enqueued_at;
  };

  const std::string label_;
  const std::string mutex_name_;  ///< must outlive mutex_ (declared first)
  mutable common::Mutex mutex_{mutex_name_.c_str(),
                               common::LockRank::kClusterShardQueue};
  std::deque<Entry> queue_ PRAXI_GUARDED_BY(mutex_);
  std::vector<Entry> in_flight_ PRAXI_GUARDED_BY(mutex_);
  std::uint64_t enqueued_ PRAXI_GUARDED_BY(mutex_) = 0;
  std::uint64_t delivered_ PRAXI_GUARDED_BY(mutex_) = 0;
  std::uint64_t delivered_bytes_ PRAXI_GUARDED_BY(mutex_) = 0;
  std::uint64_t settled_ PRAXI_GUARDED_BY(mutex_) = 0;

  obs::Counter* routed_total_ = nullptr;
  obs::Counter* settled_total_ = nullptr;
  obs::Counter* unsettled_total_ = nullptr;
  obs::Gauge* depth_gauge_ = nullptr;
  obs::Histogram* settle_seconds_ = nullptr;
};

}  // namespace detail

ShardRouter::ShardRouter(const core::Praxi& model, ClusterConfig config)
    : config_(std::move(config)),
      ring_(config_.shards, config_.ring),
      model_(model) {
  if (config_.shards == 0) {
    throw std::invalid_argument("ShardRouter: shards must be >= 1");
  }
  auto& registry = obs::MetricsRegistry::global();
  imbalance_gauge_ = &registry.gauge(
      "praxi_cluster_ring_imbalance",
      "Peak-to-fair ratio of hash-ring ownership (1.0 = perfectly even).");
  restarts_total_ = &registry.counter("praxi_cluster_shard_restarts_total",
                                      "Shard servers rebuilt from their WAL.");
  imbalance_gauge_->set(ring_.imbalance());

  shards_.reserve(config_.shards);
  run_.assign(config_.shards, 0);
  for (std::size_t i = 0; i < config_.shards; ++i) {
    auto shard = std::make_unique<Shard>();
    shard->transport = std::make_unique<detail::ShardTransport>(
        static_cast<std::uint32_t>(i));
    shard->server = make_server(i);
    shards_.push_back(std::move(shard));
  }
  // Workers start only after every shard replayed its WAL: no frame can
  // route before the dedup floors are restored (docs/DURABILITY.md).
  for (std::size_t i = 0; i < config_.shards; ++i) {
    shards_[i]->worker = std::thread([this, i] { worker_loop(i); });
  }
}

ShardRouter::~ShardRouter() { close(); }

std::string ShardRouter::shard_wal_dir(std::size_t index) const {
  if (config_.wal_root.empty()) return {};
  return config_.wal_root + "/shard-" + std::to_string(index);
}

std::unique_ptr<service::DiscoveryServer> ShardRouter::make_server(
    std::size_t index) {
  service::ServerConfig server_config = config_.server;
  server_config.wal_dir = shard_wal_dir(index);
  return std::make_unique<service::DiscoveryServer>(model_, server_config);
}

void ShardRouter::worker_loop(std::size_t index) {
  for (;;) {
    {
      common::LockGuard lock(coord_);
      while (run_[index] == 0 && !stop_) work_cv_.wait(lock);
      if (run_[index] == 0 && stop_) return;
      run_[index] = 0;
    }
    // No router lock held here: shards classify concurrently, each inside
    // its own DiscoveryServer (rank kServerState and below).
    auto discoveries =
        shards_[index]->server->process(*shards_[index]->transport);
    {
      common::LockGuard lock(coord_);
      shards_[index]->round_discoveries = std::move(discoveries);
      if (--running_ == 0) done_cv_.notify_all();
    }
  }
}

void ShardRouter::route(std::string wire_bytes, bool from_ingress) {
  // One identity parse per frame: it picks the shard here and keys the
  // shard's in-flight table for settle matching.
  auto identity = service::ChangesetReport::peek_identity(wire_bytes);
  // Unattributable frames still route deterministically (to the empty
  // key's owner) so the owning shard can count them malformed.
  const std::uint32_t shard =
      ring_.shard_for(identity ? std::string_view(identity->agent_id)
                               : std::string_view());
  routed_frames_.fetch_add(1, std::memory_order_relaxed);
  routed_bytes_.fetch_add(wire_bytes.size(), std::memory_order_relaxed);
  shards_[shard]->transport->enqueue(std::move(wire_bytes),
                                     std::move(identity), from_ingress);
}

void ShardRouter::send(std::string wire_bytes) {
  if (closed_.load(std::memory_order_acquire)) {
    throw service::TransportError("ShardRouter: send after close");
  }
  route(std::move(wire_bytes), /*from_ingress=*/false);
}

void ShardRouter::ack(std::string_view) {
  // The router is the consumer of its shards, not of its caller; nothing
  // is ever drained from it, so there is nothing to settle here.
}

std::vector<service::Discovery> ShardRouter::process(
    service::Transport* ingress) {
  if (closed_.load(std::memory_order_acquire)) {
    throw service::TransportError("ShardRouter: process after close");
  }
  ++round_;
  if (ingress != nullptr) {
    for (auto& wire : ingress->drain()) {
      route(std::move(wire), /*from_ingress=*/true);
    }
  }

  // Wake exactly the shards with routed work and wait for all of them —
  // the round barrier. Shards run concurrently on their worker threads.
  std::vector<std::size_t> active;
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    if (shards_[i]->transport->queued() > 0) active.push_back(i);
  }
  if (!active.empty()) {
    common::LockGuard lock(coord_);
    for (const std::size_t i : active) run_[i] = 1;
    running_ += active.size();
    work_cv_.notify_all();
    while (running_ > 0) done_cv_.wait(lock);
  }

  std::vector<service::Discovery> discoveries;
  for (const std::size_t i : active) {
    std::vector<service::Discovery> batch;
    {
      common::LockGuard lock(coord_);
      batch = std::move(shards_[i]->round_discoveries);
      shards_[i]->round_discoveries.clear();
    }
    discoveries.insert(discoveries.end(),
                       std::make_move_iterator(batch.begin()),
                       std::make_move_iterator(batch.end()));
  }

  // Post-round sweep: settled frames are acknowledged upstream and
  // recorded; unsettled ones (malformed, held-window overflow) are dropped
  // for the at-least-once wire to redeliver.
  for (const std::size_t i : active) {
    auto sweep = shards_[i]->transport->sweep_round();
    unsettled_frames_.fetch_add(sweep.dropped, std::memory_order_relaxed);
    for (auto& settled : sweep.settled) {
      settled_frames_.fetch_add(1, std::memory_order_relaxed);
      if (settled.has_identity) {
        acked_.emplace(std::move(settled.agent_id), settled.sequence);
      }
      if (settled.from_ingress && ingress != nullptr) {
        ingress->ack(settled.wire);
      }
    }
  }

  if (config_.merge_every != 0 && round_ % config_.merge_every == 0) {
    merge_now();
  }
  return discoveries;
}

bool ShardRouter::acknowledged(std::string_view agent_id,
                               std::uint64_t sequence) const {
  return acked_.count({std::string(agent_id), sequence}) > 0;
}

MergedInventory ShardRouter::merge_now() {
  MergedInventory merged;
  merged.round = round_;
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    const auto inventory = shards_[i]->server->inventory();
    const std::uint64_t epoch = shards_[i]->server->model().epoch();
    for (const auto& [agent_id, applications] : inventory) {
      auto& row = merged.agents[agent_id];
      row.shard = static_cast<std::uint32_t>(i);
      row.model_epoch = epoch;
      row.applications.insert(applications.begin(), applications.end());
    }
  }
  merged_ = merged;
  return merged;
}

void ShardRouter::restart_shard(std::size_t shard) {
  if (closed_.load(std::memory_order_acquire)) {
    throw service::TransportError("ShardRouter: restart_shard after close");
  }
  auto& slot = *shards_.at(shard);
  // Between rounds the worker is parked in worker_loop's wait; the server
  // is only ever dereferenced inside a round, so swapping it here is safe.
  slot.server.reset();      // the crash: in-memory dedup state dies
  slot.transport->clear();  // queued frames die with the process, unacked
  slot.server = make_server(shard);  // WAL replay restores settled floors
  shard_restarts_.fetch_add(1, std::memory_order_relaxed);
  restarts_total_->inc();
}

void ShardRouter::close() {
  if (closed_.exchange(true, std::memory_order_acq_rel)) return;
  {
    common::LockGuard lock(coord_);
    stop_ = true;
    work_cv_.notify_all();
  }
  for (auto& shard : shards_) {
    if (shard->worker.joinable()) shard->worker.join();
  }
}

service::TransportStats ShardRouter::stats() const {
  service::TransportStats stats;
  stats.sent_frames = routed_frames_.load(std::memory_order_relaxed);
  stats.sent_bytes = routed_bytes_.load(std::memory_order_relaxed);
  stats.acked_frames = settled_frames_.load(std::memory_order_relaxed);
  stats.rejected_frames = unsettled_frames_.load(std::memory_order_relaxed);
  // Shard lives re-established (restart_shard) — the cluster's analogue of
  // a reconnect, reported through the same uniform field.
  stats.reconnects = shard_restarts_.load(std::memory_order_relaxed);
  for (const auto& shard : shards_) {
    const auto inner = shard->transport->stats();
    stats.delivered_frames += inner.delivered_frames;
    stats.delivered_bytes += inner.delivered_bytes;
    stats.pending_frames += inner.pending_frames;
    stats.duplicates += shard->server->duplicates();
    stats.malformed_frames += shard->server->malformed();
    stats.overloads += shard->server->overflows();
  }
  return stats;
}

}  // namespace praxi::cluster
