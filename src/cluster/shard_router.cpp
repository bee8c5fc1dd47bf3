#include "cluster/shard_router.hpp"

#include <chrono>
#include <deque>
#include <exception>
#include <future>
#include <iterator>
#include <stdexcept>

#include "common/annotations.hpp"
#include "common/sync.hpp"

namespace praxi::cluster {

namespace detail {

/// The wire between the router and ONE shard: a queue the router feeds and
/// the shard's DiscoveryServer drains, plus the list of frames the shard
/// settled this round. A frame never outlives its round, so no per-frame
/// identity is kept: the round's delivered count minus its settled count
/// is what the sweep leaves for the wire to redeliver.
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
        "Latency from the round's first route to a frame's settle through "
        "the owning shard (queue wait + classification + WAL fsync).",
        obs::latency_buckets());
  }

  struct Sweep {
    std::vector<std::string> settled;  ///< wire bytes, to ack upstream
    std::uint64_t dropped = 0;
  };

  // --- Router-facing producer side ---

  void enqueue(std::string wire) PRAXI_EXCLUDES(mutex_) {
    const auto now = std::chrono::steady_clock::now();
    common::LockGuard lock(mutex_);
    // The shard drains the whole queue every round, so an empty queue
    // means this is the round's first frame for this shard.
    if (queue_.empty()) first_routed_at_ = now;
    queue_.push_back(std::move(wire));
    ++enqueued_;
    routed_total_->inc();
    depth_gauge_->set(static_cast<double>(queue_.size()));
  }

  std::size_t queued() const PRAXI_EXCLUDES(mutex_) {
    common::LockGuard lock(mutex_);
    return queue_.size();
  }

  /// Router sweep after the round's join: hands back every settled frame
  /// and counts the rest as dropped (the upstream wire redelivers them).
  Sweep sweep_round() PRAXI_EXCLUDES(mutex_) {
    common::LockGuard lock(mutex_);
    Sweep sweep;
    sweep.dropped = round_delivered_ - round_settled_.size();
    unsettled_total_->inc(sweep.dropped);
    sweep.settled = std::move(round_settled_);
    round_settled_.clear();
    round_delivered_ = 0;
    return sweep;
  }

  /// Shard crash simulation: queued and in-flight frames die with the
  /// process (they were never acknowledged upstream, so agents resend).
  void clear() PRAXI_EXCLUDES(mutex_) {
    common::LockGuard lock(mutex_);
    queue_.clear();
    round_settled_.clear();
    round_delivered_ = 0;
    depth_gauge_->set(0.0);
  }

  // --- service::Transport (the shard server's side) ---

  void send(std::string) override {
    throw service::TransportError(
        "ShardTransport is receive-only; frames route through "
        "ShardRouter::process");
  }

  std::vector<std::string> drain() PRAXI_EXCLUDES(mutex_) override {
    common::LockGuard lock(mutex_);
    std::vector<std::string> wires(std::make_move_iterator(queue_.begin()),
                                   std::make_move_iterator(queue_.end()));
    queue_.clear();
    depth_gauge_->set(0.0);
    round_delivered_ += wires.size();
    delivered_ += wires.size();
    for (const auto& wire : wires) delivered_bytes_ += wire.size();
    return wires;
  }

  /// The shard settled one drained frame: keep its bytes for the upstream
  /// ack. DiscoveryServer acks each drained frame at most once.
  void ack(std::string_view wire_bytes) PRAXI_EXCLUDES(mutex_) override {
    const auto now = std::chrono::steady_clock::now();
    common::LockGuard lock(mutex_);
    round_settled_.emplace_back(wire_bytes);
    ++settled_;
    settled_total_->inc();
    settle_seconds_->observe(
        std::chrono::duration<double>(now - first_routed_at_).count());
  }

  void close() override {}

  service::TransportStats stats() const PRAXI_EXCLUDES(mutex_) override {
    common::LockGuard lock(mutex_);
    service::TransportStats stats;
    stats.sent_frames = enqueued_;
    stats.delivered_frames = delivered_;
    stats.delivered_bytes = delivered_bytes_;
    stats.acked_frames = settled_;
    stats.pending_frames = queue_.size() + round_delivered_;
    return stats;
  }

 private:
  const std::string label_;
  const std::string mutex_name_;  ///< must outlive mutex_ (declared first)
  mutable common::Mutex mutex_{mutex_name_.c_str(),
                               common::LockRank::kClusterShardQueue};
  std::deque<std::string> queue_ PRAXI_GUARDED_BY(mutex_);
  /// This round's settled frames and drained-frame count; reset by the
  /// sweep.
  std::vector<std::string> round_settled_ PRAXI_GUARDED_BY(mutex_);
  std::uint64_t round_delivered_ PRAXI_GUARDED_BY(mutex_) = 0;
  std::chrono::steady_clock::time_point first_routed_at_
      PRAXI_GUARDED_BY(mutex_);
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
      ring_(config_.shards),
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
  for (std::size_t i = 0; i < config_.shards; ++i) {
    auto shard = std::make_unique<Shard>();
    shard->transport = std::make_unique<detail::ShardTransport>(
        static_cast<std::uint32_t>(i));
    shard->server = make_server(i);
    shards_.push_back(std::move(shard));
  }
  // One worker per shard, each shard on its own: a shard always classifies
  // on the same thread, so its model table, dedup state and allocations
  // stay with that thread from one round to the next.
  if (config_.shards > 1) {
    for (auto& shard : shards_) shard->pool = std::make_unique<ThreadPool>(1);
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

void ShardRouter::route(std::string wire_bytes) {
  // One identity parse per frame, only to pick the shard. Unattributable
  // frames still route deterministically (to the empty key's owner) so the
  // owning shard can count them malformed.
  const auto identity = service::ChangesetReport::peek_identity(wire_bytes);
  const std::uint32_t shard =
      ring_.shard_for(identity ? std::string_view(identity->agent_id)
                               : std::string_view());
  routed_frames_.fetch_add(1, std::memory_order_relaxed);
  routed_bytes_.fetch_add(wire_bytes.size(), std::memory_order_relaxed);
  shards_[shard]->transport->enqueue(std::move(wire_bytes));
}

std::vector<service::Discovery> ShardRouter::process(
    service::Transport& ingress) {
  if (closed_) {
    throw service::TransportError("ShardRouter: process after close");
  }
  ++round_;
  for (auto& wire : ingress.drain()) route(std::move(wire));

  // The fork-join: every shard with routed work runs its own
  // DiscoveryServer::process() on its shard's pool, or inline in a
  // one-shard router (which has no pools, so the two never mix).
  std::vector<std::size_t> active;
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    if (shards_[i]->transport->queued() > 0) active.push_back(i);
  }
  std::vector<std::vector<service::Discovery>> batches(active.size());
  std::vector<std::future<void>> running;
  running.reserve(active.size());
  std::exception_ptr error;
  try {
    for (std::size_t k = 0; k < active.size(); ++k) {
      Shard& shard = *shards_[active[k]];
      auto run = [&batches, &shard, k] {
        batches[k] = shard.server->process(*shard.transport);
      };
      if (shard.pool) {
        running.push_back(shard.pool->submit(run));
      } else {
        run();
      }
    }
    wait_all(running);
  } catch (...) {
    error = std::current_exception();
  }

  // Post-round sweep, also after a shard threw: settled frames are
  // acknowledged upstream; unsettled ones (malformed, held-window
  // overflow, a failed shard's whole batch) are dropped for the
  // at-least-once wire to redeliver.
  for (const std::size_t i : active) {
    const auto sweep = shards_[i]->transport->sweep_round();
    unsettled_frames_.fetch_add(sweep.dropped, std::memory_order_relaxed);
    settled_frames_.fetch_add(sweep.settled.size(), std::memory_order_relaxed);
    for (const auto& wire : sweep.settled) ingress.ack(wire);
  }
  if (error) std::rethrow_exception(error);

  std::vector<service::Discovery> discoveries;
  for (auto& batch : batches) {
    discoveries.insert(discoveries.end(),
                       std::make_move_iterator(batch.begin()),
                       std::make_move_iterator(batch.end()));
  }
  return discoveries;
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
  return merged;
}

void ShardRouter::restart_shard(std::size_t shard) {
  if (closed_) {
    throw service::TransportError("ShardRouter: restart_shard after close");
  }
  auto& slot = *shards_.at(shard);
  // Between rounds no pool task runs; the server is only ever dereferenced
  // inside a round, so swapping it here is safe.
  slot.server.reset();      // the crash: in-memory dedup state dies
  slot.transport->clear();  // queued frames die with the process, unacked
  slot.server = make_server(shard);  // WAL replay restores settled floors
  shard_restarts_.fetch_add(1, std::memory_order_relaxed);
  restarts_total_->inc();
}

void ShardRouter::close() {
  closed_ = true;
  for (auto& shard : shards_) shard->pool.reset();
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
    const auto totals = shard->server->totals();
    stats.duplicates += totals.duplicate;
    stats.malformed_frames += totals.malformed;
    stats.overloads += totals.overflow;
  }
  return stats;
}

}  // namespace praxi::cluster
