// Sharded discovery cluster behind one ingress Transport (docs/CLUSTER.md).
//
// One SocketServer on one port is the single-server ceiling; the ROADMAP's
// "heavy traffic from millions of users" needs the discovery tier to scale
// out. The workload shards cleanly by agent — every exactly-once structure
// (SequenceTracker, WAL, inventory) is keyed by agent_id — so the cluster
// is N fully independent DiscoveryServer shards, each with its own model
// snapshot cell, dedup state, and WAL directory, behind a ShardRouter that
// consistent-hashes agent_id onto shards via a HashRing.
//
// The router is a round coordinator, not a Transport: each round it drains
// the same wire frames a single server would from an ingress Transport (a
// frontend net::SocketServer, the in-memory MessageBus, or a FaultyTransport
// wrapping either), and acknowledges them on that ingress ONLY after the
// owning shard settled the frame — per-shard exactly-once/dedup state is
// untouched, so the cluster inherits the single-server durability contract
// shard by shard (docs/DURABILITY.md).
//
// Concurrency model (docs/CONCURRENCY.md): each process() round is one
// fork-join. The router buckets the drained ingress batch by owning shard,
// then submits each non-empty bucket to its shard's own one-worker
// ThreadPool and waits for all of them (with one shard the round runs
// inline). Shards classify concurrently, each inside its own
// DiscoveryServer::settle() (rank kServerState), which returns the indices
// of the bucket's frames to acknowledge. After the join the router thread
// acks those frames upstream, from its own buckets; the rest (malformed,
// held-window overflow, or everything of a shard that threw) are left for
// the at-least-once wire to redeliver — exactly the MessageBus
// disposition, one layer up. Only then does a shard's exception reach the
// caller. Nothing per report outlives the round.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "cluster/hash_ring.hpp"
#include "common/thread_pool.hpp"
#include "core/praxi.hpp"
#include "obs/metrics.hpp"
#include "service/server.hpp"
#include "service/transport.hpp"

namespace praxi::cluster {

struct ClusterConfig {
  /// Shard count; the ring is pre-populated with shards 0..shards-1.
  std::size_t shards = 2;
  /// Per-shard DiscoveryServer template. `server.wal_dir` is ignored —
  /// shard WAL directories derive from `wal_root` so two shards can never
  /// share a log (docs/DURABILITY.md).
  service::ServerConfig server;
  /// When non-empty, shard i logs to `<wal_root>/shard-<i>` and replays it
  /// on (re)construction. Empty keeps every shard's dedup state in-memory.
  std::string wal_root;
};

/// One agent's row in the merged fleet inventory, with cluster attribution:
/// which shard owns the agent and which model epoch that shard was serving
/// when the merge ran (epochs advance independently per shard).
struct MergedAgent {
  std::uint32_t shard = 0;
  std::uint64_t model_epoch = 0;
  std::set<std::string> applications;
};

struct MergedInventory {
  std::uint64_t round = 0;  ///< router round the merge observed
  std::map<std::string, MergedAgent> agents;
};

class ShardRouter {
 public:
  /// Builds `config.shards` DiscoveryServer shards, each owning a copy of
  /// `model`, replaying its WAL (if any) before the first frame routes.
  explicit ShardRouter(const core::Praxi& model, ClusterConfig config = {});
  ~ShardRouter();

  ShardRouter(const ShardRouter&) = delete;
  ShardRouter& operator=(const ShardRouter&) = delete;

  /// One routing + processing round: drains `ingress`, routes each frame to
  /// its owning shard, runs every shard with work concurrently, then
  /// acknowledges settled frames back on `ingress`. Returns this round's
  /// discoveries (shard-major, arrival order within a shard). When a shard
  /// throws, every other shard's settled frames are still acked, then the
  /// first exception is rethrown. Call from one thread at a time.
  /// Throws TransportError after close().
  std::vector<service::Discovery> process(service::Transport& ingress);

  /// Releases the shard pools' workers; idempotent. Call from the thread
  /// that calls process(). Shard servers stay readable (inventory/stats)
  /// after close.
  void close();

  /// Cluster-wide totals: routed (sent), settled (acked) and unsettled
  /// (rejected) frames plus the summed shard-server outcomes (duplicates,
  /// malformed, overflow rejects). No queue sits between the router and
  /// its shards, so the delivered and pending fields stay zero. Safe to
  /// call concurrently.
  service::TransportStats stats() const;

  /// Pulls every shard's inventory into one fleet view, stamped with the
  /// current round. Call between rounds.
  MergedInventory merge_now();

  /// Simulates a shard crash + restart between rounds: the shard's
  /// in-memory dedup state dies with it; its WAL (when configured) replays
  /// into the replacement server, so previously settled identities stay
  /// settled. Router-thread only.
  void restart_shard(std::size_t shard);

  std::size_t shard_count() const { return shards_.size(); }
  std::uint32_t shard_for(std::string_view agent_id) const {
    return ring_.shard_for(agent_id);
  }
  const HashRing& ring() const { return ring_; }
  /// The shard's server, for tests and the merged-inventory CLI view.
  /// Quiescence rules follow DiscoveryServer's accessor contract.
  const service::DiscoveryServer& shard(std::size_t i) const {
    return *shards_.at(i)->server;
  }

 private:
  struct Shard {
    std::unique_ptr<service::DiscoveryServer> server;
    /// This shard's one worker; null in a one-shard router (rounds run
    /// inline) and after close().
    std::unique_ptr<ThreadPool> pool;
    /// praxi_cluster_{routed,settled,unsettled}_total{shard}.
    obs::Counter* routed_total = nullptr;
    obs::Counter* settled_total = nullptr;
    obs::Counter* unsettled_total = nullptr;
  };

  std::unique_ptr<service::DiscoveryServer> make_server(std::size_t index);
  std::string shard_wal_dir(std::size_t index) const;

  ClusterConfig config_;
  HashRing ring_;
  core::Praxi model_;  ///< pristine copy for shard (re)construction
  std::vector<std::unique_ptr<Shard>> shards_;

  bool closed_ = false;      ///< router thread only
  std::uint64_t round_ = 0;  ///< router thread only

  // Lifetime totals (stats(); mirrored into praxi_cluster_* instruments).
  std::atomic<std::uint64_t> routed_frames_{0};
  std::atomic<std::uint64_t> routed_bytes_{0};
  std::atomic<std::uint64_t> settled_frames_{0};
  std::atomic<std::uint64_t> unsettled_frames_{0};
  std::atomic<std::uint64_t> shard_restarts_{0};

  obs::Gauge* imbalance_gauge_ = nullptr;
  obs::Counter* restarts_total_ = nullptr;
  obs::Histogram* settle_seconds_ = nullptr;
};

}  // namespace praxi::cluster
