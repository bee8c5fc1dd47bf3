#include "core/model_snapshot.hpp"

#include <cmath>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "obs/scoped_timer.hpp"

namespace praxi::core {

namespace {

/// Same family the live engine observes (praxi.cpp registers the identical
/// name, so the registry hands back the same histogram): one observation
/// per single-item prediction regardless of which surface served it.
obs::Histogram& predict_seconds() {
  static obs::Histogram& h = obs::MetricsRegistry::global().histogram(
      "praxi_engine_predict_seconds",
      "Latency of one single-item prediction (tags -> features -> scorer)",
      obs::latency_buckets());
  return h;
}

}  // namespace

ml::FeatureVector hash_tagset_features(const ml::FeatureHasher& hasher,
                                       const columbus::TagSet& tagset) {
  std::vector<std::pair<std::string, float>> tokens;
  tokens.reserve(tagset.tags.size());
  for (const auto& tag : tagset.tags) {
    // log1p damping: a single huge-frequency tag (e.g. a build tree's
    // random-named root directory) must not drown the informative tags
    // after L2 normalization.
    tokens.emplace_back(tag.text,
                        std::log1p(static_cast<float>(tag.frequency)));
  }
  auto features = hasher.hash(tokens);
  ml::l2_normalize(features);
  return features;
}

columbus::TagSet ModelSnapshot::extract_tags(
    const fs::Changeset& changeset) const {
  // Per-thread reusable scratch: repeat callers (the serving loop) pay zero
  // pipeline allocations after their first extraction on this thread.
  return columbus_.extract(changeset, columbus::tls_extraction_scratch());
}

std::vector<columbus::TagSet> ModelSnapshot::extract_tags(
    std::span<const fs::Changeset* const> changesets, ThreadPool* pool) const {
  return columbus_.extract(changesets, pool);
}

std::vector<columbus::TagSet> ModelSnapshot::extract_tags(
    std::span<const fs::ChangesetView* const> changesets,
    ThreadPool* pool) const {
  return columbus_.extract(changesets, pool);
}

std::vector<std::string> ModelSnapshot::predict(const fs::Changeset& changeset,
                                                std::size_t n) const {
  return predict_tags(extract_tags(changeset), n);
}

std::vector<std::string> ModelSnapshot::predict_tags(
    const columbus::TagSet& tagset, std::size_t n) const {
  if (!trained_) throw std::logic_error("Praxi: predict before train");
  obs::ScopedTimer timer(predict_seconds());
  const auto features = features_of(tagset);
  if (mode_ == LabelMode::kSingleLabel) {
    return {learner_.predict(features)};
  }
  return learner_.predict_top_n(features, n);
}

std::vector<std::vector<std::string>> ModelSnapshot::predict(
    std::span<const fs::Changeset* const> changesets, TopN n,
    ThreadPool* pool) const {
  if (!trained_) throw std::logic_error("Praxi: predict before train");
  n.check(changesets.size(), "ModelSnapshot::predict");
  std::vector<std::vector<std::string>> out(changesets.size());
  // One task per item covers the whole chain (tokenize -> trie -> features
  // -> scorer); everything it touches is frozen, so items never contend.
  parallel_for(pool, changesets.size(), [&](std::size_t i) {
    out[i] = predict_tags(extract_tags(*changesets[i]), n.at(i));
  });
  return out;
}

std::vector<std::vector<std::string>> ModelSnapshot::predict_tags(
    std::span<const columbus::TagSet> tagsets, TopN n, ThreadPool* pool) const {
  if (!trained_) throw std::logic_error("Praxi: predict before train");
  n.check(tagsets.size(), "ModelSnapshot::predict_tags");
  std::vector<std::vector<std::string>> out(tagsets.size());
  parallel_for(pool, tagsets.size(), [&](std::size_t i) {
    out[i] = predict_tags(tagsets[i], n.at(i));
  });
  return out;
}

std::vector<std::pair<std::string, float>> ModelSnapshot::ranked(
    const columbus::TagSet& tagset) const {
  if (!trained_) throw std::logic_error("Praxi: ranked before train");
  const auto features = features_of(tagset);
  if (mode_ == LabelMode::kSingleLabel) {
    return learner_.scores(features);
  }
  // CSOAA costs ascend; flip sign so "higher is more likely" holds.
  auto costs = learner_.costs(features);
  std::vector<std::pair<std::string, float>> out;
  out.reserve(costs.size());
  for (auto& [label, cost] : costs) out.emplace_back(std::move(label), -cost);
  return out;
}

}  // namespace praxi::core
