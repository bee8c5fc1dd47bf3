#include "cluster/shard_router.hpp"

#include <chrono>
#include <exception>
#include <future>
#include <iterator>
#include <stdexcept>

namespace praxi::cluster {

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
  settle_seconds_ = &registry.histogram(
      "praxi_cluster_settle_seconds",
      "Latency from the start of the round's routing to the owning shard's "
      "settle of a frame (routing + classification + WAL fsync).",
      obs::latency_buckets());
  imbalance_gauge_->set(ring_.imbalance());

  shards_.reserve(config_.shards);
  for (std::size_t i = 0; i < config_.shards; ++i) {
    auto shard = std::make_unique<Shard>();
    const obs::Labels labels{{"shard", std::to_string(i)}};
    shard->routed_total = &registry.counter(
        "praxi_cluster_routed_total", "Frames routed to a shard.", labels);
    shard->settled_total = &registry.counter(
        "praxi_cluster_settled_total",
        "Frames settled (acknowledged) by the owning shard.", labels);
    shard->unsettled_total = &registry.counter(
        "praxi_cluster_unsettled_total",
        "Frames left unsettled at round end, for the at-least-once wire to "
        "redeliver.",
        labels);
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

std::vector<service::Discovery> ShardRouter::process(
    service::Transport& ingress) {
  if (closed_) {
    throw service::TransportError("ShardRouter: process after close");
  }
  ++round_;
  // Route: one identity parse per frame, only to pick the owning shard's
  // bucket. Unattributable frames still route deterministically (to the
  // empty key's owner) so the owning shard can count them malformed.
  std::vector<std::vector<std::string>> buckets(shards_.size());
  std::vector<std::string> frames = ingress.drain();
  const auto routed_at = std::chrono::steady_clock::now();
  for (auto& wire : frames) {
    const auto identity = service::ChangesetReport::peek_identity(wire);
    const std::uint32_t shard =
        ring_.shard_for(identity ? std::string_view(identity->agent_id)
                                 : std::string_view());
    routed_frames_.fetch_add(1, std::memory_order_relaxed);
    routed_bytes_.fetch_add(wire.size(), std::memory_order_relaxed);
    buckets[shard].push_back(std::move(wire));
  }

  // The fork-join: every shard with routed frames settles its bucket on its
  // own pool, or inline in a one-shard router (which has no pools, so the
  // two never mix).
  std::vector<service::DiscoveryServer::Settlement> settled(shards_.size());
  std::vector<std::future<void>> running;
  running.reserve(shards_.size());
  std::exception_ptr error;
  try {
    for (std::size_t i = 0; i < shards_.size(); ++i) {
      if (buckets[i].empty()) continue;
      Shard& shard = *shards_[i];
      shard.routed_total->inc(buckets[i].size());
      auto run = [this, &shard, &bucket = buckets[i], &result = settled[i],
                  routed_at] {
        result = shard.server->settle(bucket);
        const std::chrono::duration<double> seconds =
            std::chrono::steady_clock::now() - routed_at;
        for (std::size_t n = result.acks.size(); n > 0; --n) {
          settle_seconds_->observe(seconds.count());
        }
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

  // After the join, also after a shard threw: settled frames are
  // acknowledged upstream from the router's own buckets; unsettled ones
  // (malformed, held-window overflow, a failed shard's whole bucket) are
  // left for the at-least-once wire to redeliver.
  std::vector<service::Discovery> discoveries;
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    if (buckets[i].empty()) continue;
    Shard& shard = *shards_[i];
    auto& batch = settled[i];
    for (const std::size_t frame : batch.acks) ingress.ack(buckets[i][frame]);
    const std::size_t unsettled = buckets[i].size() - batch.acks.size();
    shard.settled_total->inc(batch.acks.size());
    shard.unsettled_total->inc(unsettled);
    settled_frames_.fetch_add(batch.acks.size(), std::memory_order_relaxed);
    unsettled_frames_.fetch_add(unsettled, std::memory_order_relaxed);
    discoveries.insert(discoveries.end(),
                       std::make_move_iterator(batch.discoveries.begin()),
                       std::make_move_iterator(batch.discoveries.end()));
  }
  if (error) std::rethrow_exception(error);
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
  slot.server.reset();  // the crash: in-memory dedup state dies
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
    const auto totals = shard->server->totals();
    stats.duplicates += totals.duplicate;
    stats.malformed_frames += totals.malformed;
    stats.overloads += totals.overflow;
  }
  return stats;
}

}  // namespace praxi::cluster
