// Tests for the distributed discovery service (src/service): wire format,
// message bus, collection agents, and the central server — including the
// online feedback loop that makes new packages discoverable without retrain.
#include <gtest/gtest.h>

#include <memory>

#include "common/serialize.hpp"
#include "eval/harness.hpp"
#include "obs/metrics.hpp"
#include "pkg/dataset.hpp"
#include "pkg/installer.hpp"
#include "pkg/noise.hpp"
#include "service/agent.hpp"
#include "service/server.hpp"
#include "service/transport.hpp"

namespace praxi::service {
namespace {

fs::Changeset sample_changeset(const std::string& label) {
  fs::Changeset cs;
  cs.set_open_time(100);
  for (int i = 0; i < 5; ++i) {
    cs.add(fs::ChangeRecord{"/usr/bin/" + label + std::to_string(i), 0755,
                            fs::ChangeKind::kCreate, 100 + i});
  }
  if (!label.empty()) cs.add_label(label);
  cs.close(200);
  return cs;
}

TEST(ChangesetReport, WireRoundTrip) {
  ChangesetReport report;
  report.agent_id = "vm-042";
  report.sequence = 7;
  report.changeset = sample_changeset("nginx");
  const ChangesetReport parsed = ChangesetReport::from_wire(report.to_wire());
  EXPECT_EQ(parsed.agent_id, "vm-042");
  EXPECT_EQ(parsed.sequence, 7u);
  EXPECT_EQ(parsed.changeset, report.changeset);
}

TEST(ChangesetReport, RejectsGarbage) {
  EXPECT_THROW(ChangesetReport::from_wire("not a report"), SerializeError);
  EXPECT_THROW(ChangesetReport::from_wire(""), SerializeError);
}

TEST(MessageBus, FifoAndAccounting) {
  MessageBus bus;
  bus.send("first");
  bus.send("second-longer");
  EXPECT_EQ(bus.stats().pending_frames, 2u);
  EXPECT_EQ(bus.stats().sent_frames, 2u);
  EXPECT_EQ(bus.stats().sent_bytes, 5u + 13u);
  const auto drained = bus.drain();
  ASSERT_EQ(drained.size(), 2u);
  EXPECT_EQ(drained[0], "first");
  EXPECT_EQ(drained[1], "second-longer");
  EXPECT_EQ(bus.stats().pending_frames, 0u);
  EXPECT_TRUE(bus.drain().empty());
}

/// Shared trained model + catalog for the integration tests.
class ServiceTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    catalog_ = new pkg::Catalog(pkg::Catalog::subset(42, 10, 0));
    pkg::DatasetBuilder builder(*catalog_, 7);
    pkg::CollectOptions options;
    options.samples_per_app = 5;
    const auto dataset = builder.collect_dirty(options);
    model_ = new core::Praxi();
    model_->train_changesets(eval::pointers(dataset));
  }

  static void TearDownTestSuite() {
    delete catalog_;
    delete model_;
  }

  static pkg::Catalog* catalog_;
  static core::Praxi* model_;
};

pkg::Catalog* ServiceTest::catalog_ = nullptr;
core::Praxi* ServiceTest::model_ = nullptr;

TEST_F(ServiceTest, ServerRequiresTrainedModel) {
  EXPECT_THROW(DiscoveryServer(core::Praxi{}), std::invalid_argument);
}

TEST_F(ServiceTest, AgentShipsWindowsOnInterval) {
  auto clock = fs::make_clock();
  fs::InMemoryFilesystem instance(clock);
  pkg::provision_base_image(instance);
  MessageBus bus;
  AgentConfig config;
  config.interval_s = 60.0;
  config.boundary_guard_s = 0.0;
  CollectionAgent agent("vm-1", instance, bus, config);

  instance.create_file("/opt/x/file");
  clock->advance_s(61.0);
  EXPECT_TRUE(agent.poll());
  EXPECT_EQ(bus.stats().pending_frames, 1u);
  EXPECT_EQ(agent.shipped(), 1u);

  // Quiet window: nothing shipped.
  clock->advance_s(61.0);
  EXPECT_FALSE(agent.poll());
  EXPECT_EQ(bus.stats().pending_frames, 1u);
}

TEST_F(ServiceTest, AgentGuardHoldsDenseActivity) {
  auto clock = fs::make_clock();
  fs::InMemoryFilesystem instance(clock);
  pkg::provision_base_image(instance);
  MessageBus bus;
  AgentConfig config;
  config.interval_s = 30.0;
  CollectionAgent agent("vm-1", instance, bus, config);

  clock->advance_s(29.0);
  for (int i = 0; i < 10; ++i) {
    instance.create_file("/opt/burst/f" + std::to_string(i));
  }
  clock->advance_s(2.0);
  EXPECT_FALSE(agent.poll()) << "dense activity at the boundary must hold";
  clock->advance_s(11.0);
  EXPECT_TRUE(agent.poll());
}

TEST_F(ServiceTest, EndToEndFleetDiscovery) {
  MessageBus bus;
  DiscoveryServer server(*model_, {});

  // Three instances, each with its own agent; installs on two of them.
  struct Instance {
    fs::SimClockPtr clock;
    std::unique_ptr<fs::InMemoryFilesystem> filesystem;
    std::unique_ptr<pkg::Installer> installer;
    std::unique_ptr<CollectionAgent> agent;
  };
  std::vector<Instance> fleet;
  for (int v = 0; v < 3; ++v) {
    Instance instance;
    instance.clock = fs::make_clock();
    instance.filesystem =
        std::make_unique<fs::InMemoryFilesystem>(instance.clock);
    pkg::provision_base_image(*instance.filesystem);
    instance.installer = std::make_unique<pkg::Installer>(
        *instance.filesystem, *catalog_, Rng(static_cast<std::uint64_t>(100 + v)));
    AgentConfig config;
    config.interval_s = 60.0;
    instance.agent = std::make_unique<CollectionAgent>(
        "vm-" + std::to_string(v), *instance.filesystem, bus, config);
    fleet.push_back(std::move(instance));
  }

  const std::string app0 = catalog_->repository_names()[0];
  const std::string app1 = catalog_->repository_names()[6];
  fleet[0].installer->install(app0);
  fleet[2].installer->install(app0);
  for (auto& instance : fleet) {
    instance.clock->advance_s(120.0);
    instance.agent->poll();
  }
  // A later window on vm-2 sees a second installation.
  fleet[2].installer->install(app1);
  for (auto& instance : fleet) {
    instance.clock->advance_s(120.0);
    instance.agent->poll();
  }
  const auto discoveries = server.process(bus);

  EXPECT_EQ(discoveries.size(), 3u);  // vm-1 stayed quiet throughout
  const auto agents = server.agents_running(app0);
  EXPECT_EQ(agents, (std::vector<std::string>{"vm-0", "vm-2"}));
  ASSERT_EQ(server.inventory().count("vm-2"), 1u);
  EXPECT_TRUE(server.inventory().at("vm-2").count(app1));
  EXPECT_EQ(server.processed(), 3u);
}

TEST_F(ServiceTest, StoreKeepsOnlyLabeledFeedback) {
  // The store holds Praxi's training artifact — labeled tagsets — and
  // nothing per classified report.
  pkg::DatasetBuilder builder(*catalog_, 11);
  pkg::CollectOptions options;
  options.samples_per_app = 1;
  const auto dataset = builder.collect_dirty(options);
  MessageBus bus;
  DiscoveryServer server(*model_, {});
  for (std::size_t i = 0; i < dataset.changesets.size(); ++i) {
    ChangesetReport report;
    report.agent_id = "vm-" + std::to_string(i);
    report.changeset = dataset.changesets[i];
    bus.send(report.to_wire());
  }
  EXPECT_FALSE(server.process(bus).empty());
  EXPECT_EQ(server.processed(), dataset.changesets.size());
  EXPECT_EQ(server.store().size(), 0u);

  server.learn_feedback(dataset.changesets[0]);
  EXPECT_EQ(server.store().size(), 1u);
}

TEST_F(ServiceTest, MalformedMessagesSkippedNotFatal) {
  MessageBus bus;
  DiscoveryServer server(*model_, {});
  bus.send("garbage bytes");
  ChangesetReport good;
  good.agent_id = "vm-9";
  good.sequence = 1;
  good.changeset = sample_changeset("whatever");
  bus.send(good.to_wire());

  EXPECT_NO_THROW(server.process(bus));
  EXPECT_EQ(server.totals().malformed, 1u);
  EXPECT_EQ(server.processed(), 1u);
}

TEST_F(ServiceTest, NoiseOnlyWindowsProduceNoInventory) {
  MessageBus bus;
  DiscoveryServer server(*model_, {});

  auto clock = fs::make_clock();
  fs::InMemoryFilesystem instance(clock);
  pkg::provision_base_image(instance);
  pkg::NoiseMix noise = pkg::NoiseMix::baseline(Rng(5));
  AgentConfig config;
  config.interval_s = 60.0;
  CollectionAgent agent("vm-n", instance, bus, config);

  for (int i = 0; i < 120; ++i) {
    clock->advance_s(1.0);
    noise.tick(instance, 1.0);
  }
  agent.poll();
  const auto discoveries = server.process(bus);
  EXPECT_TRUE(discoveries.empty());
  EXPECT_EQ(server.inventory().count("vm-n"), 0u);
}

TEST_F(ServiceTest, FeedbackTeachesNewPackageOnline) {
  MessageBus bus;
  DiscoveryServer server(*model_, {});

  // A package OUTSIDE the trained label set appears in the fleet.
  const pkg::Catalog big = pkg::Catalog::subset(42, 12, 0);
  const std::string newcomer = big.repository_names()[11];
  ASSERT_FALSE(catalog_->contains(newcomer));

  auto make_changeset = [&](std::uint64_t seed) {
    auto clock = fs::make_clock();
    fs::InMemoryFilesystem instance(clock);
    pkg::provision_base_image(instance);
    pkg::Installer installer(instance, big, Rng(seed));
    fs::ChangesetRecorder recorder(instance);
    installer.install(newcomer);
    return recorder.eject({newcomer});
  };

  // Operator confirms a few labeled samples -> online updates, no retrain.
  for (std::uint64_t s = 0; s < 6; ++s) {
    server.learn_feedback(make_changeset(s));
  }

  // The next sighting is identified.
  fs::Changeset unseen = make_changeset(99);
  ChangesetReport report;
  report.agent_id = "vm-new";
  report.sequence = 1;
  report.changeset = unseen;
  bus.send(report.to_wire());
  const auto discoveries = server.process(bus);
  ASSERT_EQ(discoveries.size(), 1u);
  ASSERT_FALSE(discoveries[0].applications.empty());
  EXPECT_EQ(discoveries[0].applications.front(), newcomer);
}

TEST_F(ServiceTest, FeedbackRequiresLabels) {
  DiscoveryServer server(*model_, {});
  EXPECT_THROW(server.learn_feedback(sample_changeset("")),
               std::invalid_argument);
}

TEST_F(ServiceTest, FeedbackCardinalityMustMatchModelMode) {
  // A single-label (OAA) server must refuse multi-labeled feedback BEFORE
  // any learning mutates the model.
  DiscoveryServer server(*model_, {});
  ASSERT_EQ(server.model().mode(), core::LabelMode::kSingleLabel);
  fs::Changeset two;
  two.set_open_time(100);
  two.add(fs::ChangeRecord{"/usr/bin/a", 0755, fs::ChangeKind::kCreate, 101});
  two.add_label("nginx");
  two.add_label("redis");
  two.close(200);
  const std::string before = server.model().to_binary();
  EXPECT_THROW(server.learn_feedback(two), std::invalid_argument);
  EXPECT_EQ(server.model().to_binary(), before) << "model mutated on reject";
}

TEST_F(ServiceTest, RejectedFeedbackPublishesNothingAndStoresNothing) {
  // Labels are validated before extraction and before the state lock, so a
  // rejected call leaves no trace: no epoch, no stored tagset.
  DiscoveryServer server(*model_, {});
  server.learn_feedback(sample_changeset("nginx"));
  const auto epoch = server.model().epoch();
  const auto stored = server.store().size();
  fs::Changeset two = sample_changeset("nginx");
  two.add_label("redis");
  EXPECT_THROW(server.learn_feedback(two), std::invalid_argument);
  EXPECT_THROW(server.learn_feedback(sample_changeset("")),
               std::invalid_argument);
  EXPECT_EQ(server.model().epoch(), epoch);
  EXPECT_EQ(server.store().size(), stored);
}

TEST_F(ServiceTest, SteadyFeedbackRefreshesSnapshotsInsteadOfCopying) {
  // Each learn_feedback publishes an epoch. Once the epochs the server was
  // built with are retired, every publish refreshes a recycled buffer at the
  // slots the update wrote (praxi_ml_snapshot_full_copies_total).
  pkg::DatasetBuilder builder(*catalog_, 13);
  pkg::CollectOptions options;
  options.samples_per_app = 2;
  const auto dataset = builder.collect_dirty(options);
  auto& registry = obs::MetricsRegistry::global();
  registry.set_enabled(true);
  DiscoveryServer server(*model_, {});
  for (std::size_t i = 0; i < 2; ++i) {
    server.learn_feedback(dataset.changesets[i]);
  }
  const auto full_before =
      registry.counter_value("praxi_ml_snapshot_full_copies_total");
  const auto epoch_before = server.model().epoch();
  for (std::size_t i = 0; i < 200; ++i) {
    server.learn_feedback(dataset.changesets[i % dataset.changesets.size()]);
  }
  EXPECT_EQ(server.model().epoch(), epoch_before + 200);
  EXPECT_LE(registry.counter_value("praxi_ml_snapshot_full_copies_total") -
                full_before,
            1u);
}

TEST(ChangesetReport, PeekAgentIdSurvivesPayloadCorruption) {
  ChangesetReport report;
  report.agent_id = "vm-peek";
  report.sequence = 3;
  report.changeset = sample_changeset("nginx");
  std::string wire = report.to_wire();
  // Corrupt a payload byte well past the id: from_wire must reject the
  // frame, yet peek still attributes it to the sender.
  wire[wire.size() - 2] = static_cast<char>(wire[wire.size() - 2] ^ 0x40);
  EXPECT_THROW(ChangesetReport::from_wire(wire), SerializeError);
  const auto identity = ChangesetReport::peek_identity(wire);
  ASSERT_TRUE(identity.has_value());
  EXPECT_EQ(identity->agent_id, "vm-peek");
  EXPECT_EQ(identity->sequence, 3u);
  EXPECT_FALSE(ChangesetReport::peek_identity("random junk").has_value());
  EXPECT_FALSE(ChangesetReport::peek_identity("").has_value());
}

TEST_F(ServiceTest, IngestStatsAttributeCorruptionPerAgent) {
  MessageBus bus;
  DiscoveryServer server(*model_, {});

  ChangesetReport good;
  good.agent_id = "vm-healthy";
  good.sequence = 1;
  good.changeset = sample_changeset("nginx");
  bus.send(good.to_wire());

  // vm-flaky delivers one clean report and one with a flipped payload byte.
  ChangesetReport flaky = good;
  flaky.agent_id = "vm-flaky";
  bus.send(flaky.to_wire());
  std::string corrupt = flaky.to_wire();
  corrupt[corrupt.size() - 1] = static_cast<char>(corrupt.back() ^ 0x01);
  bus.send(corrupt);

  // Total garbage: not attributable to anyone.
  bus.send("garbage that is not a frame");

  EXPECT_NO_THROW(server.process(bus));
  EXPECT_EQ(server.processed(), 2u);
  EXPECT_EQ(server.totals().malformed, 2u);
  EXPECT_EQ(server.totals().version_mismatch, 0u);

  const auto& stats = server.ingest_stats();
  ASSERT_EQ(stats.count("vm-healthy"), 1u);
  EXPECT_EQ(stats.at("vm-healthy").processed, 1u);
  EXPECT_EQ(stats.at("vm-healthy").malformed, 0u);
  ASSERT_EQ(stats.count("vm-flaky"), 1u);
  EXPECT_EQ(stats.at("vm-flaky").processed, 1u);
  EXPECT_EQ(stats.at("vm-flaky").malformed, 1u);
  ASSERT_EQ(stats.count(DiscoveryServer::kUnattributedAgent), 1u);
  EXPECT_EQ(stats.at(DiscoveryServer::kUnattributedAgent).malformed, 1u);
}

TEST_F(ServiceTest, VersionSkewCountedSeparatelyFromCorruption) {
  MessageBus bus;
  DiscoveryServer server(*model_, {});

  ChangesetReport report;
  report.agent_id = "vm-upgraded";
  report.sequence = 1;
  report.changeset = sample_changeset("nginx");
  std::string wire = report.to_wire();
  // The version field is bytes [4, 8) of the envelope header; the CRC does
  // not cover the header, so bumping it yields a structurally sound frame
  // from "the future" — VersionError, not corruption.
  wire[4] = static_cast<char>(wire[4] + 1);
  bus.send(wire);

  EXPECT_NO_THROW(server.process(bus));
  EXPECT_EQ(server.totals().version_mismatch, 1u);
  EXPECT_EQ(server.totals().malformed, 0u);
  EXPECT_EQ(server.processed(), 0u);
  const auto& stats = server.ingest_stats();
  ASSERT_EQ(stats.count("vm-upgraded"), 1u);
  EXPECT_EQ(stats.at("vm-upgraded").version_mismatch, 1u);
}

}  // namespace
}  // namespace praxi::service
