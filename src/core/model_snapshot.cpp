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

/// The tags -> features kernel behind both hash_tagset_features overloads:
/// reads only each tag's text view and frequency.
template <typename Tags>
ml::FeatureVector hash_tags(const ml::FeatureHasher& hasher, const Tags& tags) {
  ml::FeatureVector features;
  features.reserve(tags.size());
  for (const auto& tag : tags) {
    // log1p damping: a single huge-frequency tag (e.g. a build tree's
    // random-named root directory) must not drown the informative tags
    // after L2 normalization.
    features.push_back(ml::Feature{
        hasher.index_of(tag.text),
        std::log1p(static_cast<float>(tag.frequency))});
  }
  ml::sum_collisions(features);
  ml::l2_normalize(features);
  return features;
}

}  // namespace

ml::FeatureVector hash_tagset_features(
    const ml::FeatureHasher& hasher, std::span<const columbus::TagView> tags) {
  return hash_tags(hasher, tags);
}

ml::FeatureVector hash_tagset_features(const ml::FeatureHasher& hasher,
                                       const columbus::TagSet& tagset) {
  return hash_tags(hasher, tagset.tags);
}

columbus::TagSet ModelSnapshot::extract_tags(
    const fs::Changeset& changeset) const {
  // Per-thread reusable scratch: repeat callers (the serving loop) pay zero
  // pipeline allocations after their first extraction on this thread.
  return columbus_->extract(changeset, columbus::tls_extraction_scratch());
}

std::vector<columbus::TagSet> ModelSnapshot::extract_tags(
    std::span<const fs::Changeset* const> changesets, ThreadPool* pool) const {
  return columbus_->extract(changesets, pool);
}

template <typename AnyChangeset>
std::vector<std::string> ModelSnapshot::predict_one(
    const AnyChangeset& changeset, std::size_t n) const {
  // The ranked tags stay views into this thread's scratch from extraction
  // until they are hashed, so no tag string is ever copied.
  const std::span<const columbus::TagView> tags =
      columbus_->extract_ranked(changeset, columbus::tls_extraction_scratch());
  obs::ScopedTimer timer(predict_seconds());
  return learner_.predict(hash_tagset_features(hasher_, tags), n);
}

template <typename AnyChangeset>
std::vector<std::vector<std::string>> ModelSnapshot::predict_batch(
    std::span<const AnyChangeset* const> changesets, TopN n,
    ThreadPool* pool) const {
  if (!trained_) throw std::logic_error("Praxi: predict before train");
  n.check(changesets.size(), "ModelSnapshot::predict");
  std::vector<std::vector<std::string>> out(changesets.size());
  // One task per item covers the whole chain (tokenize -> trie -> features
  // -> scorer); everything it touches is frozen, so items never contend.
  parallel_for(pool, changesets.size(), [&](std::size_t i) {
    out[i] = predict_one(*changesets[i], n.at(i));
  });
  return out;
}

std::vector<std::string> ModelSnapshot::predict(const fs::Changeset& changeset,
                                                std::size_t n) const {
  if (!trained_) throw std::logic_error("Praxi: predict before train");
  return predict_one(changeset, n);
}

std::vector<std::string> ModelSnapshot::predict_tags(
    const columbus::TagSet& tagset, std::size_t n) const {
  if (!trained_) throw std::logic_error("Praxi: predict before train");
  obs::ScopedTimer timer(predict_seconds());
  return learner_.predict(features_of(tagset), n);
}

std::vector<std::vector<std::string>> ModelSnapshot::predict(
    std::span<const fs::Changeset* const> changesets, TopN n,
    ThreadPool* pool) const {
  return predict_batch(changesets, n, pool);
}

std::vector<std::vector<std::string>> ModelSnapshot::predict(
    std::span<const fs::ChangesetView* const> changesets, TopN n,
    ThreadPool* pool) const {
  return predict_batch(changesets, n, pool);
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
  return learner_.ranked(features_of(tagset));
}

}  // namespace praxi::core
