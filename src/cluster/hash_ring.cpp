#include "cluster/hash_ring.hpp"

#include <algorithm>
#include <map>
#include <stdexcept>
#include <string>

#include "common/hash.hpp"

namespace praxi::cluster {

namespace {

/// Ring points projected per shard. More points flatten the arc-length
/// distribution (imbalance shrinks roughly with 1/sqrt(points)) at the
/// cost of a larger sorted point table.
constexpr std::size_t kVirtualNodes = 128;
/// Hash seed for point placement and key lookup. Fixed, so every router in
/// a fleet agrees by construction.
constexpr std::uint64_t kSeed = 0x50525849ULL;  // "PRXI"

std::uint64_t point_hash(std::uint32_t shard, std::size_t vnode) {
  // The point's identity is textual so the placement is stable across
  // platforms and trivially reproducible in other languages.
  const std::string key =
      "shard:" + std::to_string(shard) + ":" + std::to_string(vnode);
  return murmur3_128_low64(key, kSeed);
}

}  // namespace

HashRing::HashRing(std::size_t shards) {
  for (std::size_t s = 0; s < shards; ++s) {
    add_shard(static_cast<std::uint32_t>(s));
  }
}

void HashRing::add_shard(std::uint32_t shard) {
  if (!shards_.insert(shard).second) return;  // already a member
  points_.reserve(points_.size() + kVirtualNodes);
  for (std::size_t v = 0; v < kVirtualNodes; ++v) {
    points_.emplace_back(point_hash(shard, v), shard);
  }
  std::sort(points_.begin(), points_.end());
}

void HashRing::remove_shard(std::uint32_t shard) {
  if (shards_.erase(shard) == 0) return;
  points_.erase(std::remove_if(points_.begin(), points_.end(),
                               [shard](const auto& p) {
                                 return p.second == shard;
                               }),
                points_.end());
}

std::uint32_t HashRing::shard_for(std::string_view key) const {
  if (points_.empty()) {
    throw std::logic_error("HashRing: shard_for on an empty ring");
  }
  const std::uint64_t h = murmur3_128_low64(key, kSeed);
  // Clockwise successor: first point with hash >= h, wrapping to the
  // smallest point past the top of the ring.
  auto it = std::lower_bound(
      points_.begin(), points_.end(), h,
      [](const auto& point, std::uint64_t value) { return point.first < value; });
  if (it == points_.end()) it = points_.begin();
  return it->second;
}

std::vector<std::pair<std::uint32_t, double>> HashRing::shares() const {
  std::vector<std::pair<std::uint32_t, double>> result;
  if (points_.empty()) return result;
  // A point owns the arc (previous point, itself]; the first point also
  // owns the wrap-around arc from the last point through 2^64.
  std::vector<double> arc(points_.size(), 0.0);
  constexpr double kRing = 18446744073709551616.0;  // 2^64
  for (std::size_t i = 1; i < points_.size(); ++i) {
    arc[i] = static_cast<double>(points_[i].first - points_[i - 1].first);
  }
  arc[0] = kRing - static_cast<double>(points_.back().first) +
           static_cast<double>(points_.front().first);
  std::map<std::uint32_t, double> by_shard;
  for (const std::uint32_t shard : shards_) by_shard[shard] = 0.0;
  for (std::size_t i = 0; i < points_.size(); ++i) {
    by_shard[points_[i].second] += arc[i] / kRing;
  }
  result.assign(by_shard.begin(), by_shard.end());
  return result;
}

double HashRing::imbalance() const {
  if (shards_.empty()) return 0.0;
  double peak = 0.0;
  for (const auto& [shard, share] : shares()) peak = std::max(peak, share);
  return peak * static_cast<double>(shards_.size());
}

}  // namespace praxi::cluster
