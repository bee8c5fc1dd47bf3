// Tests for the VW-style online learner (ml/online_learner.hpp): its OAA and
// CSOAA reductions, incremental training, and model serialization. The
// suites are named after the reduction they exercise.
#include "common/serialize.hpp"
#include "ml/online_learner.hpp"

#include <gtest/gtest.h>

#include "common/rng.hpp"

namespace praxi::ml {
namespace {

/// Builds a toy separable problem: class i fires features {10i .. 10i+4}.
Example make_example(std::uint32_t class_id, Rng& rng,
                     const std::string& label) {
  FeatureVector features;
  for (int j = 0; j < 5; ++j) {
    features.push_back(Feature{class_id * 10 + std::uint32_t(j),
                               0.5f + float(rng.uniform())});
  }
  l2_normalize(features);
  return Example{std::move(features), {label}};
}

OnlineLearner oaa(OnlineLearnerConfig config = {}) {
  return OnlineLearner(Reduction::kOaa, config);
}

OnlineLearner csoaa(OnlineLearnerConfig config = {}) {
  return OnlineLearner(Reduction::kCsoaa, config);
}

/// The OAA prediction: the single argmax label.
std::string top1(const OnlineLearner& model, const FeatureVector& features) {
  const auto predicted = model.predict(features);
  EXPECT_EQ(predicted.size(), 1u);
  return predicted.empty() ? std::string() : predicted.front();
}

TEST(LabelSpace, InternAndLookup) {
  LabelSpace labels;
  EXPECT_EQ(labels.intern("a"), 0u);
  EXPECT_EQ(labels.intern("b"), 1u);
  EXPECT_EQ(labels.intern("a"), 0u);
  EXPECT_EQ(labels.size(), 2u);
  EXPECT_EQ(labels.name(1), "b");
  EXPECT_EQ(labels.lookup("a"), std::optional<std::uint32_t>(0));
  EXPECT_EQ(labels.lookup("zzz"), std::nullopt);
}

TEST(OaaClassifier, LearnsSeparableProblem) {
  Rng rng(1);
  std::vector<Example> train;
  for (std::uint32_t c = 0; c < 8; ++c) {
    for (int i = 0; i < 20; ++i) {
      train.push_back(make_example(c, rng, "class-" + std::to_string(c)));
    }
  }
  OnlineLearner model = oaa();
  model.train(train);
  int correct = 0;
  for (std::uint32_t c = 0; c < 8; ++c) {
    for (int i = 0; i < 5; ++i) {
      const Example ex = make_example(c, rng, "class-" + std::to_string(c));
      correct += top1(model, ex.features) == ex.labels.front();
    }
  }
  EXPECT_EQ(correct, 40);
}

TEST(OaaClassifier, PredictBeforeAnyTrainingReturnsEmpty) {
  OnlineLearner model = oaa();
  EXPECT_EQ(top1(model, FeatureVector{{1, 1.0f}}), "");
}

TEST(OaaClassifier, ScoresRankedDescending) {
  Rng rng(2);
  std::vector<Example> train;
  for (std::uint32_t c = 0; c < 4; ++c) {
    for (int i = 0; i < 10; ++i) {
      train.push_back(make_example(c, rng, "c" + std::to_string(c)));
    }
  }
  OnlineLearner model = oaa();
  model.train(train);
  const auto scores = model.ranked(train[0].features);
  ASSERT_EQ(scores.size(), 4u);
  for (std::size_t i = 1; i < scores.size(); ++i) {
    EXPECT_GE(scores[i - 1].second, scores[i].second);
  }
  EXPECT_EQ(scores[0].first, train[0].labels.front());
}

TEST(OaaClassifier, IncrementalTrainingAddsNewLabels) {
  Rng rng(3);
  std::vector<Example> first;
  for (std::uint32_t c = 0; c < 3; ++c) {
    for (int i = 0; i < 15; ++i) {
      first.push_back(make_example(c, rng, "old-" + std::to_string(c)));
    }
  }
  OnlineLearner model = oaa();
  model.train(first);
  EXPECT_EQ(model.labels().size(), 3u);

  // Online update with brand-new labels — no reset needed.
  std::vector<Example> second;
  for (std::uint32_t c = 3; c < 6; ++c) {
    for (int i = 0; i < 15; ++i) {
      second.push_back(make_example(c, rng, "new-" + std::to_string(c)));
    }
  }
  model.train(second);
  EXPECT_EQ(model.labels().size(), 6u);

  // Both old and new classes predictable.
  const Example old_ex = make_example(1, rng, "old-1");
  const Example new_ex = make_example(4, rng, "new-4");
  EXPECT_EQ(top1(model, old_ex.features), "old-1");
  EXPECT_EQ(top1(model, new_ex.features), "new-4");
}

TEST(OaaClassifier, ResetForgetsEverything) {
  Rng rng(4);
  OnlineLearner model = oaa();
  model.learn_one(make_example(0, rng, "x").features, {"x"});
  EXPECT_EQ(model.labels().size(), 1u);
  model.reset();
  EXPECT_EQ(model.labels().size(), 0u);
  EXPECT_EQ(top1(model, FeatureVector{{1, 1.0f}}), "");
}

TEST(OaaClassifier, BinaryRoundTripPredictsIdentically) {
  Rng rng(5);
  std::vector<Example> train;
  for (std::uint32_t c = 0; c < 5; ++c) {
    for (int i = 0; i < 10; ++i) {
      train.push_back(make_example(c, rng, "c" + std::to_string(c)));
    }
  }
  OnlineLearner model = oaa();
  model.train(train);
  const OnlineLearner loaded =
      OnlineLearner::from_binary(model.to_binary(), Reduction::kOaa);
  for (const auto& ex : train) {
    EXPECT_EQ(loaded.predict(ex.features), model.predict(ex.features));
  }
  EXPECT_EQ(loaded.size_bytes(), model.size_bytes());
}

TEST(OaaClassifier, FromBinaryRejectsGarbage) {
  EXPECT_THROW(OnlineLearner::from_binary("not a model", Reduction::kOaa),
               SerializeError);
}

TEST(OaaClassifier, DeterministicAcrossRuns) {
  Rng rng_a(6), rng_b(6);
  std::vector<Example> train_a, train_b;
  for (std::uint32_t c = 0; c < 3; ++c) {
    for (int i = 0; i < 10; ++i) {
      train_a.push_back(make_example(c, rng_a, "c" + std::to_string(c)));
      train_b.push_back(make_example(c, rng_b, "c" + std::to_string(c)));
    }
  }
  OnlineLearner a = oaa(), b = oaa();
  a.train(train_a);
  b.train(train_b);
  EXPECT_EQ(a.to_binary(), b.to_binary());
}

TEST(OaaClassifier, LearnOneRequiresExactlyOneLabel) {
  OnlineLearner model = oaa();
  EXPECT_THROW(model.learn_one(FeatureVector{{1, 1.0f}}, {}),
               std::invalid_argument);
  EXPECT_THROW(model.learn_one(FeatureVector{{1, 1.0f}}, {"a", "b"}),
               std::invalid_argument);
  EXPECT_EQ(model.update_count(), 0u);
}

TEST(OnlineLearner, FromBinaryOpensOnlyItsOwnReduction) {
  Rng rng(11);
  OnlineLearner single = oaa();
  OnlineLearner multi = csoaa();
  single.learn_one(make_example(0, rng, "").features, {"x"});
  multi.learn_one(make_example(0, rng, "").features, {"x", "y"});
  EXPECT_THROW(OnlineLearner::from_binary(single.to_binary(), Reduction::kCsoaa),
               SerializeError);
  EXPECT_THROW(OnlineLearner::from_binary(multi.to_binary(), Reduction::kOaa),
               SerializeError);
  EXPECT_NO_THROW(
      OnlineLearner::from_binary(multi.to_binary(), Reduction::kCsoaa));
}

TEST(CsoaaClassifier, LearnsMultiLabelTopN) {
  Rng rng(7);
  std::vector<Example> train;
  for (int i = 0; i < 150; ++i) {
    // Each sample carries 2 of 6 classes; features are the union.
    const std::uint32_t a = std::uint32_t(rng.below(6));
    std::uint32_t b = std::uint32_t(rng.below(6));
    while (b == a) b = std::uint32_t(rng.below(6));
    FeatureVector features;
    for (std::uint32_t c : {a, b}) {
      for (int j = 0; j < 5; ++j) {
        features.push_back(
            Feature{c * 10 + std::uint32_t(j), 0.5f + float(rng.uniform())});
      }
    }
    l2_normalize(features);
    train.push_back(Example{
        std::move(features),
        {"m" + std::to_string(a), "m" + std::to_string(b)}});
  }
  OnlineLearner model = csoaa();
  model.train(train);

  int correct = 0, total = 0;
  for (int i = 0; i < 30; ++i) {
    const auto& ex = train[std::size_t(rng.below(train.size()))];
    const auto predicted = model.predict(ex.features, 2);
    for (const auto& label : ex.labels) {
      ++total;
      correct += std::find(predicted.begin(), predicted.end(), label) !=
                 predicted.end();
    }
  }
  EXPECT_GT(double(correct) / total, 0.9);
}

TEST(CsoaaClassifier, CostsAscendAndCoverAllLabels) {
  Rng rng(8);
  std::vector<Example> train;
  for (std::uint32_t c = 0; c < 4; ++c) {
    for (int i = 0; i < 10; ++i) {
      auto ex = make_example(c, rng, "");
      train.push_back(Example{ex.features, {"c" + std::to_string(c)}});
    }
  }
  OnlineLearner model = csoaa();
  model.train(train);
  // ranked() carries the negated predicted cost, so costs ascend as it
  // descends.
  const auto ranked = model.ranked(train[0].features);
  ASSERT_EQ(ranked.size(), 4u);
  for (std::size_t i = 1; i < ranked.size(); ++i) {
    EXPECT_LE(-ranked[i - 1].second, -ranked[i].second);
  }
  EXPECT_EQ(ranked[0].first, "c0");
}

TEST(CsoaaClassifier, TopNClampedToLabelCount) {
  Rng rng(9);
  OnlineLearner model = csoaa();
  model.learn_one(make_example(0, rng, "").features, {"only"});
  EXPECT_EQ(model.predict(FeatureVector{{1, 1.0f}}, 10).size(), 1u);
}

TEST(CsoaaClassifier, BinaryRoundTrip) {
  Rng rng(10);
  OnlineLearner model = csoaa();
  for (int i = 0; i < 20; ++i) {
    model.learn_one(make_example(std::uint32_t(i % 3), rng, "").features,
                    {"l" + std::to_string(i % 3)});
  }
  const OnlineLearner loaded =
      OnlineLearner::from_binary(model.to_binary(), Reduction::kCsoaa);
  const FeatureVector probe = make_example(1, rng, "").features;
  EXPECT_EQ(loaded.predict(probe, 2), model.predict(probe, 2));
}

TEST(WeightTableConfig, OutOfRangeBitsRejectedBeforeAnyShift) {
  // bits = 0 (empty mask underflow) and bits >= 31 (UB shift / absurd
  // allocation) must be rejected by the constructor, not shifted first.
  for (unsigned bits : {0u, 31u, 32u, 1000u}) {
    OnlineLearnerConfig config;
    config.bits = bits;
    EXPECT_THROW(oaa(config), std::invalid_argument) << bits;
    EXPECT_THROW(csoaa(config), std::invalid_argument) << bits;
  }
  OnlineLearnerConfig edge;
  edge.bits = 1;
  EXPECT_NO_THROW(oaa(edge));
}

TEST(WeightTableConfig, SmallBitsKeepModelSmall) {
  OnlineLearnerConfig small_config;
  small_config.bits = 12;
  const OnlineLearner small = oaa(small_config);
  OnlineLearnerConfig big_config;
  big_config.bits = 20;
  const OnlineLearner big = oaa(big_config);
  EXPECT_LT(small.size_bytes(), big.size_bytes());
  EXPECT_EQ(small.size_bytes(), (1u << 12) * sizeof(float));
}

}  // namespace
}  // namespace praxi::ml
