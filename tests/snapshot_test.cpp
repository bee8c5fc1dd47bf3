// Serve-while-learn tests (core/model_snapshot.hpp): RCU handle semantics
// (pointer stability, pinned immutability, retired-epoch reclamation), the
// snapshot_publish_every cadence knob, bit-exactness of the snapshot path
// against the legacy shims and against a sequential model, reader/trainer
// concurrency with per-epoch attribution, and the server's pinned-epoch
// contract. tools/check.sh --tsan rebuilds this binary under
// ThreadSanitizer to prove the predict path race-free.
#include "core/model_snapshot.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/praxi.hpp"
#include "eval/harness.hpp"
#include "obs/metrics.hpp"
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
  const auto probe = unlabeled(make_tagset("alpha"));
  // The target of a copy or move serves the epoch the source served, reads
  // epoch() from that one cell, and publishes on its own from there.
  const auto expect_takes_over = [&](Praxi& target, const Praxi& source,
                                     std::uint64_t epoch,
                                     const std::vector<std::string>& answer) {
    ASSERT_NE(target.snapshot(), nullptr);
    EXPECT_EQ(target.epoch(), epoch);
    EXPECT_EQ(target.snapshot()->epoch(), epoch);
    EXPECT_EQ(target.snapshot()->predict_tags(probe), answer);
    target.learn_one(make_tagset("gamma"));
    EXPECT_EQ(target.epoch(), epoch + 1);
    EXPECT_EQ(target.snapshot()->epoch(), epoch + 1);
    EXPECT_EQ(source.epoch(), epoch)
        << "the source must not see the target's epoch";
  };
  // A target with published epochs of its own, more than the source's.
  const auto busy_model = [] {
    Praxi model;
    for (const char* app : {"delta", "epsilon", "zeta", "eta"}) {
      model.learn_one(make_tagset(app));
    }
    return model;
  };

  Praxi model;
  model.learn_one(make_tagset("alpha"));
  model.learn_one(make_tagset("beta"));
  const auto expected = model.snapshot()->predict_tags(probe);
  const auto epoch = model.epoch();

  Praxi copy(model);
  expect_takes_over(copy, model, epoch, expected);

  const ModelSnapshot* raw = copy.snapshot().get();
  const auto copy_prediction = copy.snapshot()->predict_tags(probe);
  Praxi moved(std::move(copy));
  EXPECT_EQ(moved.snapshot().get(), raw) << "a move keeps the epoch object";
  // Moving the cell copies the pointer, so the moved-from model keeps its
  // epoch.
  expect_takes_over(moved, copy, epoch + 1, copy_prediction);

  Praxi copy_assigned = busy_model();
  ASSERT_GT(copy_assigned.epoch(), epoch);
  copy_assigned = model;
  EXPECT_EQ(copy_assigned.snapshot().get(), model.snapshot().get());
  expect_takes_over(copy_assigned, model, epoch, expected);

  Praxi move_assigned = busy_model();
  Praxi donor(model);
  move_assigned = std::move(donor);
  EXPECT_EQ(move_assigned.snapshot().get(), model.snapshot().get());
  expect_takes_over(move_assigned, donor, epoch, expected);

  // Self copy-assignment keeps the model and its epoch.
  const Praxi& self = model;
  model = self;
  EXPECT_EQ(model.epoch(), epoch);
  EXPECT_EQ(model.snapshot()->epoch(), epoch);
  EXPECT_EQ(model.snapshot()->predict_tags(probe), expected);
  model.learn_one(make_tagset("gamma"));
  EXPECT_EQ(model.epoch(), epoch + 1);
  EXPECT_EQ(model.snapshot()->epoch(), epoch + 1);
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
// under ThreadSanitizer, proving that every epoch hand-over goes through
// the snapshot cell's lock and that predicting races with nothing.
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
  // The trainer starts once every reader is predicting, so the updates
  // always race with readers however fast a publish is.
  std::atomic<int> readers_started{0};
  std::thread trainer([&] {
    while (readers_started.load(std::memory_order_acquire) < kReaders) {
      std::this_thread::yield();
    }
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
        if (observed[std::size_t(r)].size() == 1) {
          readers_started.fetch_add(1, std::memory_order_release);
        }
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
// O(delta) publish: recycled weight buffers refreshed at the written slots
// ---------------------------------------------------------------------------

/// A snapshot's answers, floats compared by bit pattern: ranked() over
/// every probe, or nothing for an untrained epoch.
using Answers = std::vector<std::vector<std::pair<std::string, std::uint32_t>>>;

Answers answers(const ModelSnapshot& snap,
                const std::vector<columbus::TagSet>& probes) {
  Answers out;
  if (!snap.trained()) return out;
  for (const auto& probe : probes) {
    auto& row = out.emplace_back();
    for (const auto& [label, score] : snap.ranked(probe)) {
      row.emplace_back(label, std::bit_cast<std::uint32_t>(score));
    }
  }
  return out;
}

/// What a full copy of the live model answers: the reference every epoch
/// published at this point must match bit for bit.
Answers reference(const Praxi& model,
                  const std::vector<columbus::TagSet>& probes) {
  return answers(*Praxi::from_binary(model.to_binary()).snapshot(), probes);
}

/// Whole-table copies made while `step` runs. Only the model under test may
/// publish inside `step`: reference models publish too.
template <typename Step>
std::uint64_t full_copies_during(Step&& step) {
  auto& registry = obs::MetricsRegistry::global();
  const auto before =
      registry.counter_value("praxi_ml_snapshot_full_copies_total");
  step();
  return registry.counter_value("praxi_ml_snapshot_full_copies_total") -
         before;
}

/// One published epoch a reader still holds, with what it must answer.
struct HeldEpoch {
  ModelSnapshotPtr snap;
  Answers expected;
};

class SnapshotDelta : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    const auto catalog = pkg::Catalog::subset(42, 8, 2);
    pkg::DatasetBuilder builder(catalog, 9);
    pkg::CollectOptions options;
    options.samples_per_app = 3;
    pkg::Dataset singles = builder.collect_dirty(options);
    singles.refresh_labels();
    const pkg::Dataset windows =
        pkg::DatasetBuilder::synthesize_multi(singles, 12, 2, 4, 5);
    columbus::Columbus columbus;
    for (const pkg::Dataset* set : {&std::as_const(singles), &windows}) {
      for (const auto& cs : set->changesets) {
        tagsets_->push_back(columbus.extract(cs));
        if (set == &singles) singles_->push_back(tagsets_->back());
      }
    }
    for (const auto& ts : *tagsets_) probes_->push_back(unlabeled(ts));
  }

  void SetUp() override { obs::MetricsRegistry::global().set_enabled(true); }

  /// Labeled examples for `mode`: every window in multi-label mode, the
  /// single-application recordings in single-label mode.
  static const std::vector<columbus::TagSet>& stream(LabelMode mode) {
    return mode == LabelMode::kMultiLabel ? *tagsets_ : *singles_;
  }

  // Every tagset learned is also a probe (unlabeled), so a slot a refresh
  // missed changes some probe's scores.
  static inline auto* tagsets_ = new std::vector<columbus::TagSet>();
  static inline auto* singles_ = new std::vector<columbus::TagSet>();
  static inline auto* probes_ = new std::vector<columbus::TagSet>();
};

/// Drives `model` through a random interleaving of updates, manual
/// publishes, reset()/train()/from_binary restores and readers holding up to
/// two older epochs. After every step each held epoch must still answer
/// what a full copy answered when it was published. Returns {publishes,
/// whole-table copies}.
std::pair<std::uint64_t, std::uint64_t> run_interleaving(
    Praxi& model, const std::vector<columbus::TagSet>& stream,
    const std::vector<columbus::TagSet>& probes, std::uint32_t seed,
    int steps) {
  std::mt19937 rng(seed);
  std::vector<HeldEpoch> held;
  std::uint64_t publishes = 0, full = 0;
  std::uint64_t last_epoch = model.epoch();
  std::size_t next = 0;
  for (int step = 0; step < steps; ++step) {
    const auto roll = rng() % 100;
    full += full_copies_during([&] {
      if (roll < 70) {
        model.learn_one(stream[next++ % stream.size()]);
      } else if (roll < 90) {
        model.publish();
      } else if (roll < 94) {
        model.train({stream[next % stream.size()],
                     stream[(next + 1) % stream.size()]});
        next += 2;
      } else if (roll < 97) {
        model.reset();
      } else {
        const auto runtime = model.runtime();
        model = Praxi::from_binary(model.to_binary());
        model.set_runtime(runtime);
      }
    });
    if (roll >= 97) last_epoch = 0;  // a restore restarts the epoch count
    if (model.epoch() != last_epoch) {
      ++publishes;
      last_epoch = model.epoch();
      // A reader may pin the new epoch; it holds at most two.
      if (rng() % 2 == 0) {
        held.push_back({model.snapshot(), reference(model, probes)});
      }
    }
    while (held.size() > 2 || (!held.empty() && rng() % 2 == 0)) {
      held.erase(held.begin() + static_cast<long>(rng() % held.size()));
    }
    for (const auto& epoch : held) {
      EXPECT_EQ(answers(*epoch.snap, probes), epoch.expected)
          << "epoch " << epoch.snap->epoch() << " changed at step " << step;
    }
  }
  return {publishes, full};
}

TEST_F(SnapshotDelta, RandomInterleavingsMatchAFullCopy) {
  for (const LabelMode mode : {LabelMode::kSingleLabel, LabelMode::kMultiLabel}) {
    for (const std::size_t every : {1u, 3u, 0u}) {
      SCOPED_TRACE("mode " + std::to_string(int(mode)) + " cadence " +
                   std::to_string(every));
      PraxiConfig config;
      config.mode = mode;
      config.runtime.snapshot_publish_every = every;
      Praxi model(config);
      model.train(stream(mode));
      const auto [publishes, full] = run_interleaving(
          model, stream(mode), *probes_,
          static_cast<std::uint32_t>(every * 10 + std::size_t(mode)), 150);
      EXPECT_GT(publishes, 20u);
      // reset()/train()/restores copy in full, and so do the publish after
      // one and any publish whose predecessor's buffer a reader still holds;
      // the rest refresh.
      EXPECT_LT(full, publishes)
          << full << " whole-table copies in " << publishes << " publishes";
    }
  }
}

TEST_F(SnapshotDelta, SteadyCadenceOneCopiesTheTableOnlyAtTheStart) {
  PraxiConfig config;
  config.mode = LabelMode::kMultiLabel;
  Praxi model(config);
  model.train(*tagsets_);
  std::uint64_t full = 0;
  for (std::size_t i = 0; i < 40; ++i) {
    full += full_copies_during(
        [&] { model.learn_one((*tagsets_)[i % tagsets_->size()]); });
    EXPECT_EQ(answers(*model.snapshot(), *probes_),
              reference(model, *probes_))
        << "update " << i;
  }
  // train() left the log empty: its publish and the next copy in full.
  EXPECT_EQ(full, 1u);
}

TEST_F(SnapshotDelta, DivergingCopiesNeverShareBuffers) {
  PraxiConfig config;
  config.mode = LabelMode::kMultiLabel;
  Praxi source(config);
  source.train(*singles_);
  Praxi copy(source);
  std::mt19937 rng(3);
  std::vector<std::pair<ModelSnapshotPtr, Answers>> held;
  std::uint64_t full = 0;
  for (std::size_t i = 0; i < 60; ++i) {
    // The two learn different examples, and readers hold epochs of both,
    // dropping them in a shuffled order across the two models.
    Praxi& model = i % 2 == 0 ? source : copy;
    const auto& example = (*tagsets_)[(i % 2 == 0 ? i : tagsets_->size() - 1 - i) %
                                      tagsets_->size()];
    full += full_copies_during([&] { model.learn_one(example); });
    held.emplace_back(model.snapshot(), reference(model, *probes_));
    std::shuffle(held.begin(), held.end(), rng);
    while (held.size() > 3) held.pop_back();
    for (const auto& [snap, expected] : held) {
      EXPECT_EQ(answers(*snap, *probes_), expected) << "update " << i;
    }
  }
  EXPECT_NE(source.to_binary(), copy.to_binary());
  held.clear();
  for (Praxi* model : {&source, &copy}) {
    full += full_copies_during([&] { model->publish(); });
    EXPECT_EQ(answers(*model->snapshot(), *probes_),
              reference(*model, *probes_));
  }
  EXPECT_LT(full, 40u) << "readers held at most three epochs of 62";

  // Copy-assigning drops the target's write log: its next publishes copy in
  // full and still answer like the source.
  copy = source;
  full_copies_during([&] { copy.learn_one(tagsets_->front()); });
  EXPECT_EQ(answers(*copy.snapshot(), *probes_), reference(copy, *probes_));
}

TEST_F(SnapshotDelta, LogCapFallsBackToAWholeCopy) {
  PraxiConfig config;
  config.mode = LabelMode::kMultiLabel;
  config.runtime.snapshot_publish_every = 0;
  Praxi model(config);
  model.train(*tagsets_);
  const auto publish = [&] {
    const auto full = full_copies_during([&] { model.publish(); });
    EXPECT_EQ(answers(*model.snapshot(), *probes_),
              reference(model, *probes_));
    return full;
  };
  publish();
  publish();
  ASSERT_EQ(publish(), 0u) << "steady state refreshes";
  // 2^18 / 32 logged slots per interval; each update writes tens of slots
  // for each of the classes, so a few hundred updates overflow the log.
  for (std::size_t i = 0; i < 600; ++i) {
    model.learn_one((*tagsets_)[i % tagsets_->size()]);
  }
  EXPECT_EQ(publish(), 1u) << "an overflowed interval copies in full";
  model.learn_one(tagsets_->front());
  EXPECT_EQ(publish(), 1u) << "so does the next: its refresh spans it";
  model.learn_one(tagsets_->back());
  EXPECT_EQ(publish(), 0u) << "then refreshes resume";
}

// A reader thread drops the last handle of retired epochs while the trainer
// publishes, so buffers go back to the spare slot from another thread. The
// trainer hands each epoch over through a queue, so the reader holds and
// drops epochs in an order of its own (tools/check.sh --tsan runs this
// under ThreadSanitizer).
TEST_F(SnapshotDelta, ReaderThreadReturnsBuffersWhileTrainerPublishes) {
  constexpr std::size_t kUpdates = 80;
  PraxiConfig config;
  config.mode = LabelMode::kMultiLabel;
  Praxi model(config);
  model.train(*tagsets_);

  std::mutex mutex;
  std::condition_variable ready;
  std::deque<HeldEpoch> queue;
  bool done = false;
  std::size_t checked = 0;

  std::thread reader([&] {
    std::mt19937 rng(11);
    std::vector<HeldEpoch> held;
    while (true) {
      std::unique_lock<std::mutex> lock(mutex);
      ready.wait(lock, [&] { return done || !queue.empty(); });
      if (queue.empty()) break;
      held.push_back(std::move(queue.front()));
      queue.pop_front();
      lock.unlock();
      for (const auto& epoch : held) {
        EXPECT_EQ(answers(*epoch.snap, *probes_), epoch.expected);
        ++checked;
      }
      // Keep zero to two epochs and drop them in a shuffled order.
      std::shuffle(held.begin(), held.end(), rng);
      held.resize(std::min<std::size_t>(held.size(), rng() % 3));
    }
  });

  std::uint64_t full = 0;
  for (std::size_t i = 0; i < kUpdates; ++i) {
    full += full_copies_during(
        [&] { model.learn_one((*tagsets_)[i % tagsets_->size()]); });
    HeldEpoch epoch{model.snapshot(), reference(model, *probes_)};
    {
      std::lock_guard<std::mutex> lock(mutex);
      queue.push_back(std::move(epoch));
    }
    ready.notify_one();
  }
  {
    std::lock_guard<std::mutex> lock(mutex);
    done = true;
  }
  ready.notify_one();
  reader.join();
  EXPECT_GE(checked, kUpdates);
  EXPECT_LT(full, kUpdates) << "some publishes must refresh a returned buffer";
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
