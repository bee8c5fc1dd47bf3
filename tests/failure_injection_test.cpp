// Failure-injection tests: every persistent artifact (models, changesets,
// tagsets) must reject corruption — truncation at arbitrary offsets, bit
// flips in the header, and hostile length fields — with a typed error, never
// a crash or a silently wrong model.
#include <gtest/gtest.h>

#include <utility>

#include "common/serialize.hpp"
#include "core/praxi.hpp"
#include "core/tagset_store.hpp"
#include "ml/kernel_svm.hpp"
#include "ml/online_learner.hpp"
#include "ml/word2vec.hpp"
#include "pkg/dataset.hpp"

namespace praxi {
namespace {

/// A small trained Praxi model serialized once for all corruption tests.
const std::string& trained_model_bytes() {
  static const std::string bytes = [] {
    const auto catalog = pkg::Catalog::subset(42, 5, 0);
    pkg::DatasetBuilder builder(catalog, 7);
    pkg::CollectOptions options;
    options.samples_per_app = 3;
    const auto dataset = builder.collect_dirty(options);
    core::Praxi model;
    std::vector<const fs::Changeset*> train;
    for (const auto& cs : dataset.changesets) train.push_back(&cs);
    model.train_changesets(train);
    return model.to_binary();
  }();
  return bytes;
}

class TruncationSweep : public ::testing::TestWithParam<double> {};

TEST_P(TruncationSweep, TruncatedPraxiModelRejected) {
  const std::string& bytes = trained_model_bytes();
  const auto keep = static_cast<std::size_t>(double(bytes.size()) * GetParam());
  EXPECT_THROW(core::Praxi::from_binary(std::string_view(bytes).substr(0, keep)),
               SerializeError);
}

INSTANTIATE_TEST_SUITE_P(Fractions, TruncationSweep,
                         ::testing::Values(0.0, 0.1, 0.25, 0.5, 0.75, 0.99));

TEST(FailureInjection, HeaderBitFlipRejected) {
  std::string bytes = trained_model_bytes();
  bytes[0] ^= 0x01;  // corrupt the magic
  EXPECT_THROW(core::Praxi::from_binary(bytes), SerializeError);
}

TEST(FailureInjection, EmptyInputRejectedEverywhere) {
  EXPECT_THROW(core::Praxi::from_binary(""), SerializeError);
  EXPECT_THROW(ml::OnlineLearner::from_binary("", ml::Reduction::kOaa),
               SerializeError);
  EXPECT_THROW(ml::OnlineLearner::from_binary("", ml::Reduction::kCsoaa),
               SerializeError);
  EXPECT_THROW(ml::Word2Vec::from_binary(""), SerializeError);
  EXPECT_THROW(ml::RbfSvmOva::from_binary(""), SerializeError);
  EXPECT_THROW(fs::Changeset::from_binary(""), SerializeError);
}

/// OAA learner payload with a caller-chosen bits field and weight count —
/// sealed into a VALID envelope (good magic, version, and checksum), so the
/// hostile values reach the payload validators rather than bouncing off the
/// CRC.
std::string hostile_oaa_blob(std::uint32_t bits, std::uint64_t weight_count) {
  BinaryWriter w;
  w.put<std::uint32_t>(bits);
  w.put<float>(0.5f);   // learning_rate
  w.put<float>(0.5f);   // power_t
  w.put<float>(0.0f);   // l2
  w.put<std::uint32_t>(6);   // passes
  w.put<std::uint64_t>(1);   // seed
  w.put<std::uint64_t>(0);   // update_count
  w.put<std::uint32_t>(0);   // zero labels
  w.put<std::uint64_t>(weight_count);
  return seal_snapshot(0x504f4131U /* "POA1" */, 1, w.take());
}

ml::OnlineLearner load_oaa(std::string_view bytes) {
  return ml::OnlineLearner::from_binary(bytes, ml::Reduction::kOaa);
}

/// A Praxi PRX1 model with a caller-chosen mode byte, header bits and inner
/// learner blob, sealed into a VALID envelope so the loader's cross-checks
/// between header and inner blob are what decide.
std::string prx1_blob(core::LabelMode mode, std::uint32_t header_bits,
                      const std::string& inner) {
  BinaryWriter w;
  w.put<std::uint8_t>(static_cast<std::uint8_t>(mode));
  w.put<std::uint64_t>(25);  // columbus top_k
  w.put<std::uint32_t>(2);   // columbus min_frequency
  w.put<std::uint64_t>(3);   // columbus min_tag_length
  w.put<std::uint32_t>(header_bits);
  w.put<std::uint8_t>(1);    // trained
  w.put_string(inner);
  return seal_snapshot(0x50525831U /* "PRX1" */, 1, w.take());
}

std::string learner_blob(ml::Reduction reduction, unsigned bits) {
  ml::OnlineLearnerConfig config;
  config.bits = bits;
  ml::OnlineLearner learner(reduction, config);
  learner.learn_one({{1, 1.0f}}, {"nginx"});
  return learner.to_binary();
}

TEST(FailureInjection, PraxiInnerLearnerMustMatchMode) {
  const std::string oaa = learner_blob(ml::Reduction::kOaa, 8);
  const std::string csoaa = learner_blob(ml::Reduction::kCsoaa, 8);
  // Control: each inner blob loads under its own mode.
  EXPECT_NO_THROW(core::Praxi::from_binary(
      prx1_blob(core::LabelMode::kSingleLabel, 8, oaa)));
  EXPECT_NO_THROW(core::Praxi::from_binary(
      prx1_blob(core::LabelMode::kMultiLabel, 8, csoaa)));
  // A PCS2 learner under the single-label mode byte, and the reverse.
  EXPECT_THROW(core::Praxi::from_binary(
                   prx1_blob(core::LabelMode::kSingleLabel, 8, csoaa)),
               SerializeError);
  EXPECT_THROW(core::Praxi::from_binary(
                   prx1_blob(core::LabelMode::kMultiLabel, 8, oaa)),
               SerializeError);
}

TEST(FailureInjection, PraxiInnerLearnerBitsMustMatchHeader) {
  // The feature hasher is built from the header bits and the weight table
  // from the inner blob's; a disagreement must not load.
  for (const auto& [mode, reduction] :
       {std::pair{core::LabelMode::kSingleLabel, ml::Reduction::kOaa},
        std::pair{core::LabelMode::kMultiLabel, ml::Reduction::kCsoaa}}) {
    const std::string inner = learner_blob(reduction, 8);
    EXPECT_THROW(core::Praxi::from_binary(prx1_blob(mode, 9, inner)),
                 SerializeError);
    EXPECT_THROW(core::Praxi::from_binary(prx1_blob(mode, 7, inner)),
                 SerializeError);
  }
}

TEST(FailureInjection, HostileVectorLengthRejected) {
  // A checksummed-valid OAA snapshot whose weight-vector length field is
  // absurd must not trigger a giant allocation or a crash.
  EXPECT_THROW(load_oaa(hostile_oaa_blob(18, 1ull << 62)), SerializeError);
}

TEST(FailureInjection, HostileBitsRejectedBeforeAllocation) {
  // bits >= 31 would UB-shift and bits like 30 would demand a 4 GiB table;
  // both must be rejected by parsing alone, before any table is built.
  for (std::uint32_t bits : {0u, 31u, 32u, 64u, 0xFFFFFFFFu}) {
    EXPECT_THROW(load_oaa(hostile_oaa_blob(bits, 0)), SerializeError)
        << "bits=" << bits;
  }
  // In-range bits whose declared table does not match the stored weights.
  EXPECT_THROW(load_oaa(hostile_oaa_blob(12, 0)), SerializeError);
}

TEST(FailureInjection, WrongArtifactTypeRejected) {
  // Feeding one artifact's bytes to another loader must fail on the magic.
  const std::string& praxi_bytes = trained_model_bytes();
  EXPECT_THROW(ml::Word2Vec::from_binary(praxi_bytes), SerializeError);
  EXPECT_THROW(fs::Changeset::from_binary(praxi_bytes), SerializeError);
}

TEST(FailureInjection, MalformedChangesetTextVariants) {
  const char* bad_inputs[] = {
      "",                                        // empty
      "garbage\n",                               // no header
      "#changeset open=zzz close=1 labels=\n",   // unparseable number
      "#changeset open=0 close=1 labels=\nC 99 0 /a\n",    // bad octal digit
      "#changeset open=0 close=1 labels=\nQ 0644 0 /a\n",  // bad kind
      "#changeset open=0 close=1 labels=\nC 0644\n",       // missing fields
  };
  for (const char* input : bad_inputs) {
    EXPECT_ANY_THROW(fs::Changeset::from_text(input)) << input;
  }
}

TEST(FailureInjection, MalformedTagsetTextVariants) {
  EXPECT_THROW(columbus::TagSet::from_text(""), std::invalid_argument);
  EXPECT_THROW(columbus::TagSet::from_text("no-header\n"),
               std::invalid_argument);
  EXPECT_THROW(columbus::TagSet::from_text("labels=a\nbadtag\n"),
               std::invalid_argument);
}

TEST(FailureInjection, TagsetStoreSkipsNothingOnCleanInput) {
  core::TagsetStore store;
  columbus::TagSet ts;
  ts.tags = {{"nginx", 4}};
  ts.labels = {"nginx"};
  store.add(ts);
  const auto loaded = core::TagsetStore::from_text(store.to_text());
  EXPECT_EQ(loaded.size(), 1u);
}

TEST(FailureInjection, RoundTripAfterCorruptionRecovery) {
  // After a failed load, a fresh load of the intact bytes must still work
  // (no global state poisoned by the throw).
  const std::string& bytes = trained_model_bytes();
  EXPECT_THROW(
      core::Praxi::from_binary(std::string_view(bytes).substr(0, 16)),
      SerializeError);
  EXPECT_NO_THROW(core::Praxi::from_binary(bytes));
}

}  // namespace
}  // namespace praxi
