// Consistent-hash ring: the one sanctioned agent_id -> shard mapping
// (docs/CLUSTER.md).
//
// The discovery workload shards cleanly by agent — every exactly-once
// invariant (SequenceTracker floors, WAL records, inventory entries) is
// keyed by agent_id — so the only routing requirement is that ONE shard
// owns each agent at a time and that ownership barely moves when the shard
// set changes. A consistent-hash ring gives both: each shard projects
// 128 virtual-node points onto a 64-bit ring, a key is owned by the first
// point at or clockwise after its hash, and adding (removing) shard S only
// moves the keys that land on (fall off) S's points — roughly 1/N of the
// space — while every other agent's shard, and therefore its dedup state,
// stays put.
//
// The ring is deterministic: point placement depends only on (shard id,
// virtual node index) under one fixed seed, never on insertion order, so
// every router in a fleet computes the same ownership from the same
// membership. The
// praxi_lint `ad-hoc-sharding` rule keeps `% shard_count`-style mappings —
// which reshuffle nearly every key on membership change — out of the tree.
#pragma once

#include <cstdint>
#include <set>
#include <string_view>
#include <utility>
#include <vector>

namespace praxi::cluster {

/// Deterministic consistent-hash ring over uint32 shard ids.
class HashRing {
 public:
  /// Ring pre-populated with shards 0..shards-1.
  explicit HashRing(std::size_t shards = 0);

  /// Projects `shard`'s virtual nodes onto the ring. Idempotent.
  void add_shard(std::uint32_t shard);
  /// Removes every point owned by `shard`. Unknown shards are a no-op.
  void remove_shard(std::uint32_t shard);

  /// The shard owning `key` (clockwise successor of the key's hash).
  /// Precondition: the ring is non-empty.
  std::uint32_t shard_for(std::string_view key) const;

  bool empty() const { return points_.empty(); }
  std::size_t shard_count() const { return shards_.size(); }
  const std::set<std::uint32_t>& shards() const { return shards_; }

  /// Fraction of the hash space each member owns, by exact arc length
  /// (pairs of (shard, share), shards ascending; shares sum to 1).
  std::vector<std::pair<std::uint32_t, double>> shares() const;

  /// Peak-to-fair ratio: the largest shard share divided by 1/shard_count.
  /// 1.0 is perfectly balanced; the ring-imbalance gauge reports this.
  double imbalance() const;

 private:
  /// Sorted by hash; ties broken by shard id so ownership is deterministic
  /// even on (astronomically unlikely) point collisions.
  std::vector<std::pair<std::uint64_t, std::uint32_t>> points_;
  std::set<std::uint32_t> shards_;
};

}  // namespace praxi::cluster
