// Tests for the sharded discovery cluster (docs/CLUSTER.md): the
// consistent-hash ring's core guarantees (determinism, balanced
// distribution, minimal key movement on membership change), the
// ShardRouter's round contract (routing by ring with one or many shards,
// ack-after-settle on the ingress, merged inventory with shard/epoch
// attribution, concurrent socket agents behind one frontend, a shard's
// exception reaching the caller after the other shards' acks), and
// the cluster fault-matrix case — one shard restarts mid-stream under a
// lossy wire and the merged outcome still converges to the clean
// single-server run with zero acknowledged-report loss or duplication.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "cluster/hash_ring.hpp"
#include "cluster/shard_router.hpp"
#include "eval/harness.hpp"
#include "net/faulty_transport.hpp"
#include "net/socket_client.hpp"
#include "net/socket_server.hpp"
#include "obs/metrics.hpp"
#include "pkg/dataset.hpp"
#include "service/server.hpp"
#include "service/transport.hpp"

namespace praxi::cluster {
namespace {

using service::ChangesetReport;
using service::MessageBus;

// -------------------------------------------------------------- hash ring --

std::vector<std::string> test_keys(std::size_t count) {
  std::vector<std::string> keys;
  keys.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    keys.push_back("agent-" + std::to_string(i));
  }
  return keys;
}

TEST(HashRingTest, DeterministicAcrossInstancesAndInsertionOrder) {
  const auto keys = test_keys(2000);
  HashRing forward(4);
  HashRing rebuilt;  // same membership, reversed insertion order
  for (std::uint32_t shard = 4; shard-- > 0;) rebuilt.add_shard(shard);
  ASSERT_EQ(rebuilt.shard_count(), 4u);
  for (const auto& key : keys) {
    EXPECT_EQ(forward.shard_for(key), rebuilt.shard_for(key)) << key;
  }
  // add_shard is idempotent: re-adding changes nothing.
  rebuilt.add_shard(2);
  for (const auto& key : keys) {
    EXPECT_EQ(forward.shard_for(key), rebuilt.shard_for(key)) << key;
  }
}

TEST(HashRingTest, DistributionStaysNearFairShareFor1To16Shards) {
  const auto keys = test_keys(4000);
  for (std::size_t shards = 1; shards <= 16; ++shards) {
    const HashRing ring(shards);
    std::map<std::uint32_t, std::size_t> counts;
    for (const auto& key : keys) ++counts[ring.shard_for(key)];

    const double fair =
        static_cast<double>(keys.size()) / static_cast<double>(shards);
    EXPECT_EQ(counts.size(), shards) << "every shard must own some keys";
    for (const auto& [shard, count] : counts) {
      EXPECT_GT(static_cast<double>(count), 0.4 * fair)
          << shards << " shards, shard " << shard;
      EXPECT_LT(static_cast<double>(count), 2.0 * fair)
          << shards << " shards, shard " << shard;
    }

    // Exact arc-length accounting agrees: shares sum to 1 and the peak
    // share is within the same generous envelope 128 virtual nodes buy.
    double total = 0.0;
    for (const auto& [shard, share] : ring.shares()) total += share;
    EXPECT_NEAR(total, 1.0, 1e-9);
    EXPECT_GE(ring.imbalance(), 1.0 - 1e-9);  // float sum: 1 shard ~ 1.0
    EXPECT_LT(ring.imbalance(), 2.0) << shards << " shards";
  }
}

TEST(HashRingTest, AddingAShardMovesOnlyKeysOntoIt) {
  const auto keys = test_keys(4000);
  for (std::size_t before : {1u, 4u, 8u}) {
    HashRing ring(before);
    std::vector<std::uint32_t> owner_before;
    owner_before.reserve(keys.size());
    for (const auto& key : keys) owner_before.push_back(ring.shard_for(key));

    const auto added = static_cast<std::uint32_t>(before);
    ring.add_shard(added);
    std::size_t moved = 0;
    for (std::size_t i = 0; i < keys.size(); ++i) {
      const std::uint32_t owner_after = ring.shard_for(keys[i]);
      if (owner_after != owner_before[i]) {
        ++moved;
        // The consistency guarantee: a key only ever moves TO the new
        // shard; no key is shuffled between surviving shards.
        EXPECT_EQ(owner_after, added) << keys[i];
      }
    }
    const double expected =
        static_cast<double>(keys.size()) / static_cast<double>(before + 1);
    EXPECT_GT(moved, 0u);
    EXPECT_LT(static_cast<double>(moved), 2.0 * expected)
        << before << " -> " << before + 1 << " shards";
  }
}

TEST(HashRingTest, RemovingAShardMovesOnlyItsOwnKeys) {
  const auto keys = test_keys(4000);
  HashRing ring(5);
  std::vector<std::uint32_t> owner_before;
  owner_before.reserve(keys.size());
  for (const auto& key : keys) owner_before.push_back(ring.shard_for(key));

  const std::uint32_t removed = 2;
  ring.remove_shard(removed);
  ASSERT_EQ(ring.shard_count(), 4u);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    const std::uint32_t owner_after = ring.shard_for(keys[i]);
    if (owner_before[i] == removed) {
      EXPECT_NE(owner_after, removed) << keys[i];
    } else {
      // Keys the departed shard never owned must not move at all — their
      // dedup state lives on the owner and must stay valid.
      EXPECT_EQ(owner_after, owner_before[i]) << keys[i];
    }
  }
}

// ----------------------------------------------------------- shard router --

/// Trained model + labeled changesets shared by the router cases (the
/// transport_test fault-matrix recipe, shrunk for per-case cluster runs).
class ShardRouterTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    const auto catalog = pkg::Catalog::subset(42, 6, 0);
    pkg::DatasetBuilder builder(catalog, 7);
    pkg::CollectOptions options;
    options.samples_per_app = 3;
    dataset_ = new pkg::Dataset(builder.collect_dirty(options));
    model_ = new core::Praxi();
    model_->train_changesets(eval::pointers(*dataset_));
  }

  static void TearDownTestSuite() {
    delete dataset_;
    delete model_;
  }

  using DiscoveryKey =
      std::tuple<std::string, std::uint64_t, std::vector<std::string>>;

  static std::vector<ChangesetReport> make_reports(std::size_t agents,
                                                   std::size_t per_agent) {
    std::vector<ChangesetReport> reports;
    std::size_t next = 0;
    for (std::size_t a = 0; a < agents; ++a) {
      for (std::size_t seq = 0; seq < per_agent; ++seq) {
        ChangesetReport report;
        report.agent_id = "vm-" + std::to_string(a);
        report.sequence = seq;
        report.changeset =
            dataset_->changesets[next++ % dataset_->changesets.size()];
        reports.push_back(std::move(report));
      }
    }
    return reports;
  }

  static void collect(std::vector<service::Discovery> discoveries,
                      std::vector<DiscoveryKey>& into) {
    for (auto& d : discoveries) {
      into.emplace_back(d.agent_id, d.sequence, std::move(d.applications));
    }
  }

  /// The single-server reference run every cluster outcome must match.
  static std::vector<DiscoveryKey> reference_run(
      const std::vector<ChangesetReport>& reports) {
    service::ServerConfig config;
    config.runtime.num_threads = 1;
    service::DiscoveryServer server(*model_, config);
    MessageBus bus;
    std::vector<DiscoveryKey> discoveries;
    for (const auto& report : reports) bus.send(report.to_wire());
    for (int round = 0; round < 4; ++round) {
      collect(server.process(bus), discoveries);
    }
    EXPECT_EQ(server.processed(), reports.size());
    std::sort(discoveries.begin(), discoveries.end());
    return discoveries;
  }

  static ClusterConfig cluster_config(std::size_t shards) {
    ClusterConfig config;
    config.shards = shards;
    config.server.runtime.num_threads = 1;
    return config;
  }

  static pkg::Dataset* dataset_;
  static core::Praxi* model_;
};

pkg::Dataset* ShardRouterTest::dataset_ = nullptr;
core::Praxi* ShardRouterTest::model_ = nullptr;

TEST_F(ShardRouterTest, RoutesByRingSettlesAndMatchesSingleServer) {
  // Four shards fork-join on their own pools; one shard runs each round
  // inline on the caller's thread. Both must equal the single server.
  const auto reports = make_reports(6, 6);
  const auto reference = reference_run(reports);

  for (const std::size_t shards : {std::size_t{4}, std::size_t{1}}) {
    SCOPED_TRACE("shards = " + std::to_string(shards));
    ShardRouter router(*model_, cluster_config(shards));
    MessageBus ingress;
    for (const auto& report : reports) ingress.send(report.to_wire());

    std::vector<DiscoveryKey> discoveries;
    for (int round = 0; round < 8; ++round) {
      collect(router.process(ingress), discoveries);
    }
    std::sort(discoveries.begin(), discoveries.end());
    EXPECT_EQ(discoveries, reference);

    // Every frame settled on exactly the ring-designated shard and was
    // acknowledged on the ingress it arrived through.
    std::uint64_t processed_total = 0;
    for (std::size_t i = 0; i < router.shard_count(); ++i) {
      processed_total += router.shard(i).processed();
    }
    EXPECT_EQ(processed_total, reports.size());
    for (const auto& report : reports) {
      EXPECT_TRUE(ingress.acknowledged(report.agent_id, report.sequence))
          << report.agent_id << "/" << report.sequence;
      const auto owner = router.shard_for(report.agent_id);
      const auto inventory = router.shard(owner).inventory();
      EXPECT_TRUE(inventory.count(report.agent_id))
          << report.agent_id << " missing from shard " << owner;
    }

    // Merged inventory: one row per agent, attributed to the owning shard,
    // applications identical to the single-server fleet view.
    const MergedInventory merged = router.merge_now();
    EXPECT_EQ(merged.round, 8u);
    service::ServerConfig single_config;
    single_config.runtime.num_threads = 1;
    service::DiscoveryServer single(*model_, single_config);
    MessageBus single_bus;
    for (const auto& report : reports) single_bus.send(report.to_wire());
    for (int round = 0; round < 4; ++round) single.process(single_bus);
    const auto single_inventory = single.inventory();

    ASSERT_EQ(merged.agents.size(), single_inventory.size());
    for (const auto& [agent, row] : merged.agents) {
      EXPECT_EQ(row.shard, router.shard_for(agent)) << agent;
      ASSERT_TRUE(single_inventory.count(agent)) << agent;
      EXPECT_EQ(row.applications, single_inventory.at(agent)) << agent;
      EXPECT_EQ(row.model_epoch, router.shard(row.shard).model().epoch());
    }

    const auto stats = router.stats();
    EXPECT_EQ(stats.sent_frames, reports.size());
    EXPECT_EQ(stats.acked_frames, reports.size());
    EXPECT_EQ(stats.duplicates, 0u);
    EXPECT_EQ(stats.pending_frames, 0u);
    router.close();
  }
}

TEST_F(ShardRouterTest, ShardExceptionReachesTheCallerAfterTheSweep) {
  // A shard whose settle() throws (a WAL fsync or compaction failure; here
  // the crash hook) fails the round the way a single `serve` server does:
  // the router still acks every other shard's settled frames, leaving the
  // failed frames unacked for the wire to redeliver, and only then
  // rethrows.
  const auto reports = make_reports(6, 3);
  const auto reference = reference_run(reports);

  for (const std::size_t shards : {std::size_t{2}, std::size_t{1}}) {
    SCOPED_TRACE("shards = " + std::to_string(shards));
    ShardRouter router(*model_, cluster_config(shards));
    MessageBus ingress;
    for (const auto& report : reports) ingress.send(report.to_wire());

    service::testhooks::simulate_crash_before_commit = true;
    EXPECT_THROW(router.process(ingress), std::runtime_error);
    service::testhooks::simulate_crash_before_commit = false;

    const auto failed = router.stats();
    EXPECT_EQ(failed.acked_frames, 0u);
    EXPECT_EQ(failed.rejected_frames, reports.size())
        << "every frame of the failed round is swept unsettled";
    EXPECT_EQ(failed.pending_frames, 0u);
    for (const auto& report : reports) {
      EXPECT_FALSE(ingress.acknowledged(report.agent_id, report.sequence));
    }

    // The agents resend everything unacked; the retry settles each report
    // exactly once.
    for (const auto& report : reports) ingress.send(report.to_wire());
    std::vector<DiscoveryKey> discoveries;
    collect(router.process(ingress), discoveries);
    std::sort(discoveries.begin(), discoveries.end());
    EXPECT_EQ(discoveries, reference);

    std::uint64_t processed_total = 0;
    for (std::size_t i = 0; i < router.shard_count(); ++i) {
      processed_total += router.shard(i).processed();
    }
    EXPECT_EQ(processed_total, reports.size());
    for (const auto& report : reports) {
      EXPECT_TRUE(ingress.acknowledged(report.agent_id, report.sequence))
          << report.agent_id << "/" << report.sequence;
    }
    const auto stats = router.stats();
    EXPECT_EQ(stats.duplicates, 0u);
    EXPECT_EQ(stats.acked_frames, reports.size());
    router.close();
  }
}

TEST_F(ShardRouterTest, ConcurrentSendersSettleEveryFrameExactlyOnce) {
  // The TSan-lane case, in the topology `praxi-cli cluster` runs: agent
  // threads push through their own SocketClients into one frontend
  // SocketServer (whose reader threads fill its queue) while the router
  // thread runs rounds on its shard pools. Every frame must settle
  // exactly once, and every agent must see all its acks.
  const std::size_t kThreads = 4;
  const std::size_t kPerThread = 12;
  const auto reports = make_reports(kThreads, kPerThread);

  ShardRouter router(*model_, cluster_config(3));
  net::SocketServer frontend;
  std::atomic<int> unsettled{0};
  std::vector<std::thread> senders;
  senders.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    senders.emplace_back([&, t] {
      net::SocketClientConfig config;
      config.port = frontend.port();
      config.client_id = "vm-" + std::to_string(t);
      net::SocketClient client(config);
      for (std::size_t seq = 0; seq < kPerThread; ++seq) {
        client.send(reports[t * kPerThread + seq].to_wire());
      }
      if (!client.flush(60000)) unsettled.fetch_add(1);
      client.close();
    });
  }

  const auto settled = [&router] {
    std::uint64_t total = 0;
    for (std::size_t i = 0; i < router.shard_count(); ++i) {
      total += router.shard(i).processed();
    }
    return total;
  };
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (settled() < reports.size() &&
         std::chrono::steady_clock::now() < deadline) {
    router.process(frontend);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  for (auto& sender : senders) sender.join();
  // close() joins the frontend's readers, so the last round sees every
  // copy that reached it.
  frontend.close();
  router.process(frontend);

  EXPECT_EQ(unsettled.load(), 0) << "every agent must settle all its reports";
  EXPECT_EQ(settled(), reports.size());
  // The frontend keeps no dedup state: a frame an agent resent reaches
  // its shard again and is settled there as a duplicate, never processed.
  std::uint64_t duplicates = 0;
  for (std::size_t i = 0; i < router.shard_count(); ++i) {
    duplicates += router.shard(i).totals().duplicate;
  }
  EXPECT_EQ(duplicates, frontend.stats().delivered_frames - reports.size());
  router.close();
}

/// A MessageBus ingress that also records the bytes of every upstream ack.
class RecordingIngress final : public service::Transport {
 public:
  void send(std::string wire_bytes) override { bus.send(std::move(wire_bytes)); }
  std::vector<std::string> drain() override { return bus.drain(); }
  void ack(std::string_view wire_bytes) override {
    acked.emplace_back(wire_bytes);
    bus.ack(wire_bytes);
  }
  void close() override {}
  service::TransportStats stats() const override { return bus.stats(); }

  MessageBus bus;
  std::vector<std::string> acked;
};

TEST_F(ShardRouterTest, RoundAcksEachSettledFrameOnceAndNeverAMalformedOne) {
  // One round over valid frames, a damaged copy of one of them routed
  // ahead of its intact copy, and a redelivered frame. Upstream acks are
  // exactly the settled frames' bytes: every valid frame and the
  // redelivery once each, the damaged copy never.
  const auto reports = make_reports(3, 2);
  std::vector<std::string> wires;
  for (const auto& report : reports) wires.push_back(report.to_wire());
  std::string damaged = wires[1];
  damaged[damaged.size() - 2] = static_cast<char>(damaged[damaged.size() - 2] ^ 0x40);

  RecordingIngress ingress;
  ingress.send(damaged);
  for (const auto& wire : wires) ingress.send(wire);
  ingress.send(wires[0]);  // redelivered after a lost ack

  obs::Histogram& settle = obs::MetricsRegistry::global().histogram(
      "praxi_cluster_settle_seconds", "", obs::latency_buckets());
  ShardRouter router(*model_, cluster_config(2));
  const std::uint64_t settles_before = settle.count();
  // Per-shard counters are process-global series: read them as deltas.
  const auto shard_counter = [](const char* name, std::size_t shard) {
    return &obs::MetricsRegistry::global().counter(
        name, "", {{"shard", std::to_string(shard)}});
  };
  const char* const kSeries[] = {"praxi_cluster_routed_total",
                                 "praxi_cluster_settled_total",
                                 "praxi_cluster_unsettled_total"};
  std::map<std::pair<std::string, std::size_t>, std::uint64_t> before;
  for (const char* name : kSeries) {
    for (std::size_t shard = 0; shard < 2; ++shard) {
      before[{name, shard}] = shard_counter(name, shard)->value();
    }
  }
  const auto delta = [&](const char* name, std::size_t shard) {
    return shard_counter(name, shard)->value() - before[{name, shard}];
  };
  const auto owner = [&router](const std::string& wire) {
    const auto identity = ChangesetReport::peek_identity(wire);
    return router.shard_for(identity ? identity->agent_id : "");
  };
  router.process(ingress);

  std::vector<std::string> expected = wires;
  expected.push_back(wires[0]);
  std::sort(expected.begin(), expected.end());
  std::vector<std::string> acked = ingress.acked;
  std::sort(acked.begin(), acked.end());
  EXPECT_EQ(acked, expected);
  EXPECT_EQ(std::count(acked.begin(), acked.end(), damaged), 0);
  for (const auto& report : reports) {
    EXPECT_TRUE(ingress.bus.acknowledged(report.agent_id, report.sequence))
        << report.agent_id << "/" << report.sequence;
  }
  EXPECT_EQ(ingress.bus.stats().acked_frames, expected.size());

  const auto stats = router.stats();
  EXPECT_EQ(stats.acked_frames, expected.size());
  EXPECT_EQ(stats.rejected_frames, 1u) << "the damaged copy, left unacked";
  EXPECT_EQ(stats.malformed_frames, 1u);
  EXPECT_EQ(stats.duplicates, 1u);
  EXPECT_EQ(stats.pending_frames, 0u);
  EXPECT_EQ(settle.count() - settles_before, expected.size());

  std::map<std::size_t, std::uint64_t> routed;
  std::map<std::size_t, std::uint64_t> settled;
  ++routed[owner(damaged)];
  for (const auto& wire : expected) ++routed[owner(wire)];
  for (const auto& wire : ingress.acked) ++settled[owner(wire)];
  for (std::size_t shard = 0; shard < 2; ++shard) {
    SCOPED_TRACE("shard " + std::to_string(shard));
    EXPECT_EQ(delta("praxi_cluster_routed_total", shard), routed[shard]);
    EXPECT_EQ(delta("praxi_cluster_settled_total", shard), settled[shard]);
    EXPECT_EQ(delta("praxi_cluster_unsettled_total", shard),
              shard == owner(damaged) ? 1u : 0u);
  }
  router.close();
}

TEST_F(ShardRouterTest, ShardRestartMidStreamOverLossyWireConverges) {
  // The cluster durability claim (ISSUE acceptance): one shard crashes and
  // restarts mid-stream while the wire drops/duplicates/reorders frames;
  // WAL replay restores the shard's settled set, agents resend everything
  // unacked, and the merged outcome equals the clean single-server run —
  // zero acknowledged reports lost, zero processed twice.
  const auto reports = make_reports(5, 8);
  const auto reference = reference_run(reports);

  const std::string wal_root =
      (std::filesystem::temp_directory_path() / "praxi_cluster_restart")
          .string();
  std::filesystem::remove_all(wal_root);

  ClusterConfig config = cluster_config(3);
  config.wal_root = wal_root;
  ShardRouter router(*model_, config);

  net::FaultPlan plan;
  plan.seed = 4242;
  plan.drop_rate = 0.15;
  plan.duplicate_rate = 0.15;
  plan.delay_rate = 0.1;
  plan.delay_drains = 2;
  MessageBus bus;
  net::FaultyTransport faulty(bus, plan);

  std::vector<std::string> wires;
  wires.reserve(reports.size());
  for (const auto& report : reports) wires.push_back(report.to_wire());
  const auto resend_unacked = [&] {
    bool all_acked = true;
    for (std::size_t i = 0; i < reports.size(); ++i) {
      if (bus.acknowledged(reports[i].agent_id, reports[i].sequence)) {
        continue;
      }
      all_acked = false;
      faulty.send(wires[i]);
    }
    return all_acked;
  };

  std::vector<DiscoveryKey> discoveries;

  // A few rounds under faults, then the busiest shard dies mid-stream.
  for (int round = 0; round < 3; ++round) {
    resend_unacked();
    collect(router.process(faulty), discoveries);
  }
  std::size_t victim = 0;
  for (std::size_t i = 1; i < router.shard_count(); ++i) {
    if (router.shard(i).processed() > router.shard(victim).processed()) {
      victim = i;
    }
  }
  const std::uint64_t victim_before = router.shard(victim).processed();
  router.restart_shard(victim);
  ASSERT_NE(router.shard(victim).wal(), nullptr);
  EXPECT_EQ(router.shard(victim).wal()->replayed_records(), victim_before);

  for (int round = 0; round < 60; ++round) {
    if (resend_unacked()) break;
    collect(router.process(faulty), discoveries);
  }
  for (int round = 0; round < 4; ++round) {
    collect(router.process(faulty), discoveries);
  }
  std::sort(discoveries.begin(), discoveries.end());

  // Exactly-once across the crash: both lives together made each discovery
  // once, label-for-label the clean run's.
  EXPECT_EQ(discoveries, reference);
  std::uint64_t processed_total = victim_before;
  for (std::size_t i = 0; i < router.shard_count(); ++i) {
    processed_total += router.shard(i).processed();
  }
  EXPECT_EQ(processed_total, reports.size());
  EXPECT_EQ(router.stats().reconnects, 1u)
      << "the restart must be visible in stats";

  router.close();
  std::filesystem::remove_all(wal_root);
}

}  // namespace
}  // namespace praxi::cluster
