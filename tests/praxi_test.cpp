// Tests for the Praxi core (core/praxi.hpp): both label modes, incremental
// training, serialization, and overhead accounting.
#include "core/praxi.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "common/serialize.hpp"
#include "obs/metrics.hpp"
#include "pkg/dataset.hpp"

namespace praxi::core {
namespace {

class PraxiTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    const auto catalog = pkg::Catalog::subset(42, 10, 2);
    pkg::DatasetBuilder builder(catalog, 7);
    pkg::CollectOptions options;
    options.samples_per_app = 6;
    dirty_ = new pkg::Dataset(builder.collect_dirty(options));
    multi_ = new pkg::Dataset(
        pkg::DatasetBuilder::synthesize_multi(*dirty_, 60, 2, 4, 11));
  }

  static void TearDownTestSuite() {
    delete dirty_;
    delete multi_;
  }

  static std::vector<const fs::Changeset*> split(const pkg::Dataset& dataset,
                                                 int mod, bool take) {
    std::vector<const fs::Changeset*> out;
    for (std::size_t i = 0; i < dataset.changesets.size(); ++i) {
      if ((int(i) % mod == 0) == take) out.push_back(&dataset.changesets[i]);
    }
    return out;
  }

  static pkg::Dataset* dirty_;
  static pkg::Dataset* multi_;
};

pkg::Dataset* PraxiTest::dirty_ = nullptr;
pkg::Dataset* PraxiTest::multi_ = nullptr;

TEST_F(PraxiTest, SingleLabelEndToEnd) {
  Praxi model;
  model.train_changesets(split(*dirty_, 6, false));
  EXPECT_TRUE(model.trained());
  int correct = 0;
  const auto test = split(*dirty_, 6, true);
  const auto snap = model.snapshot();
  for (const fs::Changeset* cs : test) {
    correct += snap->predict(*cs).front() == cs->labels().front();
  }
  EXPECT_GT(double(correct) / double(test.size()), 0.9);
}

TEST_F(PraxiTest, MultiLabelEndToEnd) {
  PraxiConfig config;
  config.mode = LabelMode::kMultiLabel;
  Praxi model(config);
  // Train on multi + all singles; test on held-out multi.
  auto train = split(*multi_, 5, false);
  for (const auto& cs : dirty_->changesets) train.push_back(&cs);
  model.train_changesets(train);

  const auto test = split(*multi_, 5, true);
  int hits = 0, total = 0;
  const auto snap = model.snapshot();
  for (const fs::Changeset* cs : test) {
    const auto predicted = snap->predict(*cs, cs->labels().size());
    EXPECT_EQ(predicted.size(), cs->labels().size());
    for (const auto& label : cs->labels()) {
      ++total;
      hits += std::find(predicted.begin(), predicted.end(), label) !=
              predicted.end();
    }
  }
  EXPECT_GT(double(hits) / total, 0.85);
}

TEST_F(PraxiTest, TagExtractionInheritsLabels) {
  Praxi model;
  const auto tags = model.extract_tags(dirty_->changesets.front());
  EXPECT_EQ(tags.labels, dirty_->changesets.front().labels());
  EXPECT_FALSE(tags.empty());
}

TEST_F(PraxiTest, FeaturesAreUnitNorm) {
  Praxi model;
  const auto tags = model.extract_tags(dirty_->changesets.front());
  const auto features = model.features_of(tags);
  double norm = 0;
  for (const auto& f : features) norm += double(f.value) * f.value;
  EXPECT_NEAR(norm, 1.0, 1e-5);
}

TEST_F(PraxiTest, IncrementalTrainingKeepsOldKnowledge) {
  // First half of the labels, then the second half arrives online.
  const auto& labels = dirty_->labels;
  ASSERT_GE(labels.size(), 4u);
  const std::set<std::string> first_half(
      labels.begin(),
      labels.begin() + static_cast<std::ptrdiff_t>(labels.size() / 2));

  std::vector<const fs::Changeset*> first, second;
  for (const auto& cs : dirty_->changesets) {
    (first_half.count(cs.labels().front()) > 0 ? first : second)
        .push_back(&cs);
  }
  Praxi model;
  model.train_changesets(first);
  const auto before = model.labels().size();
  model.train_changesets(second);  // continues, no reset
  EXPECT_GT(model.labels().size(), before);

  int correct = 0;
  const auto snap = model.snapshot();
  for (const fs::Changeset* cs : first) {
    correct += snap->predict(*cs).front() == cs->labels().front();
  }
  EXPECT_GT(double(correct) / double(first.size()), 0.8)
      << "incremental update forgot the original labels";
}

TEST_F(PraxiTest, ResetForgets) {
  Praxi model;
  model.train_changesets(split(*dirty_, 6, false));
  model.reset();
  EXPECT_FALSE(model.trained());
  EXPECT_THROW(model.snapshot()->predict(dirty_->changesets.front()),
               std::logic_error);
}

TEST_F(PraxiTest, RankedReturnsAllLabelsHighFirst) {
  Praxi model;
  model.train_changesets(split(*dirty_, 6, false));
  const auto tags = model.extract_tags(dirty_->changesets.front());
  const auto ranked = model.snapshot()->ranked(tags);
  EXPECT_EQ(ranked.size(), model.labels().size());
  for (std::size_t i = 1; i < ranked.size(); ++i) {
    EXPECT_GE(ranked[i - 1].second, ranked[i].second);
  }
  EXPECT_EQ(ranked[0].first, dirty_->changesets.front().labels().front());
}

TEST_F(PraxiTest, BinaryRoundTripPredictsIdentically) {
  Praxi model;
  model.train_changesets(split(*dirty_, 6, false));
  const Praxi loaded = Praxi::from_binary(model.to_binary());
  EXPECT_TRUE(loaded.trained());
  for (const fs::Changeset* cs : split(*dirty_, 6, true)) {
    EXPECT_EQ(loaded.snapshot()->predict(*cs), model.snapshot()->predict(*cs));
  }
}

TEST_F(PraxiTest, MultiLabelRoundTrip) {
  PraxiConfig config;
  config.mode = LabelMode::kMultiLabel;
  Praxi model(config);
  model.train_changesets(split(*multi_, 5, false));
  const Praxi loaded = Praxi::from_binary(model.to_binary());
  EXPECT_EQ(loaded.mode(), LabelMode::kMultiLabel);
  const auto& probe = multi_->changesets.front();
  EXPECT_EQ(loaded.snapshot()->predict(probe, 3),
            model.snapshot()->predict(probe, 3));
}

TEST_F(PraxiTest, LoadPublishesOneEpochOfTheRestoredWeights) {
  // A load builds the model around the restored learner: no zero-filled
  // table is published first, so the loaded model starts at epoch 1.
  Praxi model;
  model.train_changesets(split(*dirty_, 6, false));
  const std::string bytes = model.to_binary();
  auto& registry = obs::MetricsRegistry::global();
  const std::uint64_t publishes_before =
      registry.counter_value("praxi_ml_snapshot_publishes_total");
  const Praxi loaded = Praxi::from_binary(bytes);
  EXPECT_EQ(loaded.epoch(), 1u);
  EXPECT_EQ(registry.counter_value("praxi_ml_snapshot_publishes_total") -
                publishes_before,
            1u);
  for (const fs::Changeset* cs : split(*dirty_, 6, true)) {
    EXPECT_EQ(loaded.snapshot()->predict(*cs), model.snapshot()->predict(*cs));
  }
}

TEST_F(PraxiTest, OverheadAccountingPopulated) {
  Praxi model;
  model.train_changesets(split(*dirty_, 6, false));
  const auto& overhead = model.overhead();
  EXPECT_GT(overhead.tag_extraction_s, 0.0);
  EXPECT_GT(overhead.train_s, 0.0);
  EXPECT_GT(overhead.tagset_bytes, 0u);
  EXPECT_EQ(overhead.model_bytes, model.model_bytes());
}

TEST(Praxi, SingleLabelModeRejectsMultiLabelTagsets) {
  Praxi model;
  columbus::TagSet ts;
  ts.tags = {{"x", 2}};
  ts.labels = {"a", "b"};
  EXPECT_THROW(model.train({ts}), std::invalid_argument);
  EXPECT_THROW(model.learn_one(ts), std::invalid_argument);
}

TEST(Praxi, MultiLabelModeRejectsUnlabeledTagsets) {
  PraxiConfig config;
  config.mode = LabelMode::kMultiLabel;
  Praxi model(config);
  columbus::TagSet ts;
  ts.tags = {{"x", 2}};
  EXPECT_THROW(model.train({ts}), std::invalid_argument);
}

TEST(Praxi, LearnOneSupportsPureOnlineUse) {
  Praxi model;
  columbus::TagSet a;
  a.tags = {{"alpha", 5}, {"alphad", 2}};
  a.labels = {"alpha"};
  columbus::TagSet b;
  b.tags = {{"beta", 5}, {"betactl", 2}};
  b.labels = {"beta"};
  for (int i = 0; i < 10; ++i) {
    model.learn_one(a);
    model.learn_one(b);
  }
  const auto snap = model.snapshot();
  EXPECT_EQ(snap->predict_tags(a).front(), "alpha");
  EXPECT_EQ(snap->predict_tags(b).front(), "beta");
}

TEST(Praxi, FromBinaryRejectsGarbage) {
  EXPECT_THROW(Praxi::from_binary("garbage"), SerializeError);
}

}  // namespace
}  // namespace praxi::core
