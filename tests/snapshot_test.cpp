// Serve-while-learn tests (core/model_snapshot.hpp): RCU handle semantics
// (pointer stability, pinned immutability, retired-epoch reclamation), the
// snapshot_publish_every cadence knob, bit-exactness of the snapshot path
// against the legacy shims and against a sequential model, reader/trainer
// concurrency with per-epoch attribution, and the server's pinned-epoch
// contract. tools/check.sh --tsan rebuilds this binary under
// ThreadSanitizer to prove the lock-free hot path race-free.
#include "core/model_snapshot.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/praxi.hpp"
#include "eval/harness.hpp"
#include "pkg/dataset.hpp"
#include "service/server.hpp"
#include "service/transport.hpp"

namespace praxi::core {
namespace {

columbus::TagSet make_tagset(const std::string& label) {
  columbus::TagSet ts;
  ts.tags = {{label, 5}, {label + "ctl", 2}, {label + ".conf", 1}};
  ts.labels = {label};
  return ts;
}

columbus::TagSet unlabeled(columbus::TagSet ts) {
  ts.labels.clear();
  return ts;
}

TEST(Snapshot, PointerStableBetweenPublishes) {
  Praxi model;
  const auto a = model.snapshot();
  const auto b = model.snapshot();
  EXPECT_EQ(a.get(), b.get()) << "no publish -> same epoch object";
  EXPECT_EQ(a->epoch(), 1u) << "construction publishes epoch 1";
  EXPECT_FALSE(a->trained());

  model.learn_one(make_tagset("alpha"));  // default cadence publishes
  const auto c = model.snapshot();
  EXPECT_NE(a.get(), c.get());
  EXPECT_EQ(c->epoch(), 2u);
  EXPECT_TRUE(c->trained());
  EXPECT_EQ(model.epoch(), 2u);
  EXPECT_EQ(c->update_count(), 1u);
}

TEST(Snapshot, RetiredEpochIsFreedByTheLastReader) {
  Praxi model;
  model.learn_one(make_tagset("alpha"));
  auto pinned = model.snapshot();
  std::weak_ptr<const ModelSnapshot> retired = pinned;

  model.learn_one(make_tagset("beta"));  // publishes; cell drops the old epoch
  EXPECT_FALSE(retired.expired()) << "pinned handle keeps the epoch alive";
  pinned.reset();
  EXPECT_TRUE(retired.expired()) << "last release reclaims the retired epoch";
}

TEST(Snapshot, PinnedHandleIsImmutableWhileTrainerLearns) {
  Praxi model;
  model.learn_one(make_tagset("alpha"));
  model.learn_one(make_tagset("beta"));

  const auto pinned = model.snapshot();
  const auto probe = unlabeled(make_tagset("alpha"));
  const auto labels_before = pinned->labels().size();
  const auto epoch_before = pinned->epoch();
  const auto prediction_before = pinned->predict_tags(probe);

  for (int i = 0; i < 5; ++i) model.learn_one(make_tagset("gamma"));

  EXPECT_EQ(pinned->labels().size(), labels_before);
  EXPECT_EQ(pinned->epoch(), epoch_before);
  EXPECT_EQ(pinned->predict_tags(probe), prediction_before);
  EXPECT_GT(model.snapshot()->labels().size(), labels_before)
      << "the live cell must have moved on";
}

TEST(Snapshot, PublishEveryNAmortizesPublishes) {
  PraxiConfig config;
  config.runtime.snapshot_publish_every = 3;
  Praxi model(config);
  model.train({make_tagset("alpha"), make_tagset("beta")});
  const auto base = model.epoch();
  EXPECT_EQ(base, 2u) << "train() always publishes, whatever the cadence";

  model.learn_one(make_tagset("alpha"));
  model.learn_one(make_tagset("beta"));
  EXPECT_EQ(model.epoch(), base) << "two updates stay below the cadence";
  EXPECT_EQ(model.updates_since_publish(), 2u);

  model.learn_one(make_tagset("alpha"));  // third update crosses the cadence
  EXPECT_EQ(model.epoch(), base + 1);
  EXPECT_EQ(model.updates_since_publish(), 0u);
}

TEST(Snapshot, PublishEveryZeroIsManual) {
  PraxiConfig config;
  config.runtime.snapshot_publish_every = 0;
  Praxi model(config);
  model.train({make_tagset("alpha"), make_tagset("beta")});
  const auto base = model.epoch();

  const auto stale = model.snapshot();
  for (int i = 0; i < 10; ++i) model.learn_one(make_tagset("gamma"));
  EXPECT_EQ(model.epoch(), base) << "cadence 0 never publishes on learn_one";
  EXPECT_EQ(model.snapshot().get(), stale.get());
  EXPECT_EQ(model.updates_since_publish(), 10u);

  const auto fresh = model.publish();
  EXPECT_EQ(model.epoch(), base + 1);
  EXPECT_EQ(model.snapshot().get(), fresh.get());
  EXPECT_EQ(model.updates_since_publish(), 0u);
  EXPECT_GT(fresh->labels().size(), stale->labels().size());
}

TEST(Snapshot, CopyAndMovePreserveTheSnapshotCell) {
  Praxi model;
  model.learn_one(make_tagset("alpha"));
  model.learn_one(make_tagset("beta"));
  const auto probe = unlabeled(make_tagset("alpha"));
  const auto expected = model.snapshot()->predict_tags(probe);
  const auto epoch = model.epoch();

  Praxi copy(model);
  ASSERT_NE(copy.snapshot(), nullptr);
  EXPECT_EQ(copy.epoch(), epoch);
  EXPECT_EQ(copy.snapshot()->predict_tags(probe), expected);

  copy.learn_one(make_tagset("gamma"));  // copies publish independently
  EXPECT_EQ(copy.epoch(), epoch + 1);
  EXPECT_EQ(model.epoch(), epoch) << "the source must not see the copy's epoch";

  const ModelSnapshot* raw = copy.snapshot().get();
  const auto copy_prediction = copy.snapshot()->predict_tags(probe);
  const Praxi moved(std::move(copy));
  ASSERT_NE(moved.snapshot(), nullptr);
  EXPECT_EQ(moved.snapshot().get(), raw);
  EXPECT_EQ(moved.epoch(), epoch + 1);
  EXPECT_EQ(moved.snapshot()->predict_tags(probe), copy_prediction);
}

TEST(Snapshot, UntrainedEpochRefusesToPredict) {
  Praxi model;
  const auto snap = model.snapshot();
  EXPECT_FALSE(snap->trained());
  EXPECT_THROW(snap->predict_tags(make_tagset("alpha")), std::logic_error);
  EXPECT_THROW(snap->ranked(make_tagset("alpha")), std::logic_error);
}

// ---------------------------------------------------------------------------
// Determinism on a real dataset
// ---------------------------------------------------------------------------

class SnapshotDeterminismTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    const auto catalog = pkg::Catalog::subset(42, 8, 2);
    pkg::DatasetBuilder builder(catalog, 7);
    pkg::CollectOptions options;
    options.samples_per_app = 4;
    dirty_ = new pkg::Dataset(builder.collect_dirty(options));
  }

  static void TearDownTestSuite() { delete dirty_; }

  static std::vector<const fs::Changeset*> split(int mod, bool take) {
    std::vector<const fs::Changeset*> out;
    for (std::size_t i = 0; i < dirty_->changesets.size(); ++i) {
      if ((int(i) % mod == 0) == take) out.push_back(&dirty_->changesets[i]);
    }
    return out;
  }

  static pkg::Dataset* dirty_;
};

pkg::Dataset* SnapshotDeterminismTest::dirty_ = nullptr;

TEST_F(SnapshotDeterminismTest, PublishCadenceNeverChangesTheModel) {
  // Two identical training streams under different publish cadences must
  // end at byte-identical models: the cadence only bounds reader staleness.
  PraxiConfig eager;
  eager.runtime.snapshot_publish_every = 1;
  PraxiConfig amortized;
  amortized.runtime.snapshot_publish_every = 7;
  Praxi a(eager), b(amortized);

  const auto train = split(4, false);
  a.train_changesets(train);
  b.train_changesets(train);
  for (const fs::Changeset* cs : split(4, true)) {
    a.learn_one(a.extract_tags(*cs));
    b.learn_one(b.extract_tags(*cs));
  }
  b.publish();  // settle whatever the cadence left unpublished

  EXPECT_EQ(a.to_binary(), b.to_binary());
  const auto probe = unlabeled(a.extract_tags(dirty_->changesets.front()));
  EXPECT_EQ(a.snapshot()->predict_tags(probe),
            b.snapshot()->predict_tags(probe));
  EXPECT_EQ(a.snapshot()->ranked(probe), b.snapshot()->ranked(probe));
}

// ---------------------------------------------------------------------------
// Reader/trainer concurrency
// ---------------------------------------------------------------------------

// K predict threads hammer snapshot() while one trainer streams SGD updates
// and publishes an epoch per update. Every observed prediction must be
// attributable to exactly one published epoch: the trainer records what each
// epoch answers for a fixed probe, readers record what they saw, and the two
// tables must agree. Under tools/check.sh --tsan this same binary runs
// under ThreadSanitizer, proving the hot path takes no lock and races with
// nothing.
TEST(SnapshotConcurrency, EveryPredictionAttributableToOneEpoch) {
  constexpr int kReaders = 4;
  constexpr int kUpdates = 150;

  Praxi model;
  std::vector<columbus::TagSet> stream;
  for (int i = 0; i < 6; ++i) {
    stream.push_back(make_tagset("app-" + std::to_string(i)));
  }
  model.train(stream);  // readers never see an untrained epoch
  const auto probe = unlabeled(stream.front());

  std::mutex table_mutex;
  std::map<std::uint64_t, std::vector<std::string>> expected;
  {
    const auto snap = model.snapshot();
    std::lock_guard<std::mutex> lock(table_mutex);
    expected[snap->epoch()] = snap->predict_tags(probe);
  }

  std::atomic<bool> done{false};
  std::thread trainer([&] {
    for (int i = 0; i < kUpdates; ++i) {
      model.learn_one(stream[std::size_t(i) % stream.size()]);
      const auto snap = model.snapshot();  // the epoch just published
      const auto answer = snap->predict_tags(probe);
      std::lock_guard<std::mutex> lock(table_mutex);
      expected[snap->epoch()] = answer;
    }
    done.store(true, std::memory_order_release);
  });

  std::vector<std::vector<std::pair<std::uint64_t, std::vector<std::string>>>>
      observed(kReaders);
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      std::uint64_t last_epoch = 0;
      while (!done.load(std::memory_order_acquire)) {
        const auto snap = model.snapshot();
        EXPECT_GE(snap->epoch(), last_epoch) << "epochs must be monotone";
        last_epoch = snap->epoch();
        observed[std::size_t(r)].emplace_back(snap->epoch(),
                                              snap->predict_tags(probe));
      }
    });
  }
  trainer.join();
  for (auto& reader : readers) reader.join();

  EXPECT_EQ(model.epoch(), 2u + kUpdates);
  std::size_t observations = 0;
  for (const auto& per_reader : observed) {
    observations += per_reader.size();
    for (const auto& [epoch, prediction] : per_reader) {
      const auto it = expected.find(epoch);
      ASSERT_NE(it, expected.end())
          << "reader saw unpublished epoch " << epoch;
      EXPECT_EQ(it->second, prediction)
          << "epoch " << epoch << " answered inconsistently";
    }
  }
  EXPECT_GT(observations, 0u);
}

// ---------------------------------------------------------------------------
// Server integration: the pinned-epoch contract
// ---------------------------------------------------------------------------

TEST_F(SnapshotDeterminismTest, ServerDiscoveriesCarryThePinnedEpoch) {
  Praxi model;
  model.train_changesets(split(4, false));
  const auto test = split(4, true);
  ASSERT_GE(test.size(), 3u);

  service::DiscoveryServer server(model, {});
  service::MessageBus bus;
  const auto epoch_before = server.model().epoch();

  service::ChangesetReport report;
  report.agent_id = "vm-epoch";
  report.sequence = 1;
  report.changeset = *test[0];
  bus.send(report.to_wire());
  auto discoveries = server.process(bus);
  ASSERT_EQ(discoveries.size(), 1u);
  EXPECT_EQ(discoveries[0].model_epoch, epoch_before)
      << "a batch is classified against one pinned epoch";

  server.learn_feedback(*test[1]);  // publishes a fresh epoch
  EXPECT_GT(server.model().epoch(), epoch_before);

  report.sequence = 2;
  report.changeset = *test[2];
  bus.send(report.to_wire());
  discoveries = server.process(bus);
  ASSERT_EQ(discoveries.size(), 1u);
  EXPECT_EQ(discoveries[0].model_epoch, server.model().epoch());
}

}  // namespace
}  // namespace praxi::core
