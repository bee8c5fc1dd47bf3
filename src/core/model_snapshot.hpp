// core::ModelSnapshot: one immutable, refcounted epoch of a Praxi model —
// the handle behind the serve-while-learn prediction API (docs/API.md).
//
// Praxi publishes a new snapshot after each learn batch (RCU-style: build a
// frozen copy, then swap one atomic shared_ptr). Readers pin an epoch with
// Praxi::snapshot() — a single acquire load, no lock, no rank — and predict
// through it for as long as they hold the pointer: every prediction made
// through one handle is answered by exactly one published epoch, even while
// the trainer keeps streaming SGD updates and publishing newer epochs.
// Retired epochs are freed by the last reader's shared_ptr release.
//
// Predictions here are bit-identical to the live engine at the publish
// point: the tag-extraction, feature-hashing, and scoring code is the SAME
// code Praxi runs (columbus::Columbus, hash_tagset_features, the
// ml::detail kernels) over frozen copies of the same state.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "columbus/columbus.hpp"
#include "common/thread_pool.hpp"
#include "core/top_n.hpp"
#include "fs/changeset.hpp"
#include "ml/features.hpp"
#include "ml/model_snapshot.hpp"

namespace praxi::core {

enum class LabelMode : std::uint8_t {
  kSingleLabel = 0,
  kMultiLabel = 1,
};

/// The one tagset -> feature-vector kernel (log1p tag-frequency damping +
/// L2 normalization, paper §III-C), shared by the live engine and every
/// snapshot so the two paths cannot drift.
ml::FeatureVector hash_tagset_features(const ml::FeatureHasher& hasher,
                                       const columbus::TagSet& tagset);

class ModelSnapshot {
 public:
  /// Built by Praxi's publish path; not meant for direct construction.
  ModelSnapshot(std::uint64_t epoch, LabelMode mode, bool trained,
                columbus::Columbus columbus, ml::FeatureHasher hasher,
                ml::LearnerSnapshot learner)
      : epoch_(epoch),
        mode_(mode),
        trained_(trained),
        columbus_(std::move(columbus)),
        hasher_(hasher),
        learner_(std::move(learner)) {}

  /// Monotone publish counter of the owning Praxi (first publish = 1).
  std::uint64_t epoch() const { return epoch_; }
  LabelMode mode() const { return mode_; }
  bool trained() const { return trained_; }
  const ml::LabelSpace& labels() const { return learner_.labels(); }
  /// SGD updates absorbed by the model at the publish point.
  std::uint64_t update_count() const { return learner_.update_count(); }
  std::size_t model_bytes() const { return learner_.size_bytes(); }

  // -- Feature path (identical to the live engine's) -----------------------

  columbus::TagSet extract_tags(const fs::Changeset& changeset) const;
  /// Batch tag extraction, input order preserved; pass the engine's pool
  /// (Praxi::pool()) or nullptr for the sequential path.
  std::vector<columbus::TagSet> extract_tags(
      std::span<const fs::Changeset* const> changesets,
      ThreadPool* pool = nullptr) const;
  /// Batch extraction straight from decoded wire views (server ingest);
  /// tags identical to extracting the materialized changesets.
  std::vector<columbus::TagSet> extract_tags(
      std::span<const fs::ChangesetView* const> changesets,
      ThreadPool* pool = nullptr) const;
  ml::FeatureVector features_of(const columbus::TagSet& tagset) const {
    return hash_tagset_features(hasher_, tagset);
  }

  // -- Prediction (zero locks: everything below reads frozen state) --------

  /// Top-n application labels (n is ignored and treated as 1 in
  /// single-label mode). Throws std::logic_error on an untrained epoch.
  std::vector<std::string> predict(const fs::Changeset& changeset,
                                   std::size_t n = 1) const;
  std::vector<std::string> predict_tags(const columbus::TagSet& tagset,
                                        std::size_t n = 1) const;

  /// Batch prediction over raw changesets, input order preserved. `pool`
  /// only changes wall-clock time, never results.
  std::vector<std::vector<std::string>> predict(
      std::span<const fs::Changeset* const> changesets, TopN n = {},
      ThreadPool* pool = nullptr) const;

  /// Batch prediction over pre-extracted tagsets (the §V-C path).
  std::vector<std::vector<std::string>> predict_tags(
      std::span<const columbus::TagSet> tagsets, TopN n = {},
      ThreadPool* pool = nullptr) const;

  /// Ranked (label, confidence) pairs; higher is more likely in both modes.
  std::vector<std::pair<std::string, float>> ranked(
      const columbus::TagSet& tagset) const;

 private:
  std::uint64_t epoch_;
  LabelMode mode_;
  bool trained_;
  columbus::Columbus columbus_;
  ml::FeatureHasher hasher_;
  ml::LearnerSnapshot learner_;
};

/// The handle readers hold. Pin once per batch of work (one acquire load),
/// predict freely, drop when done — the epoch stays alive exactly as long
/// as someone can still predict through it.
using ModelSnapshotPtr = std::shared_ptr<const ModelSnapshot>;

}  // namespace praxi::core
