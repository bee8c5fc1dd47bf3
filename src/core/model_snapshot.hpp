// core::ModelSnapshot: one immutable, refcounted epoch of a Praxi model —
// the handle behind the serve-while-learn prediction API (docs/API.md).
//
// Praxi publishes a new snapshot after each learn batch (RCU-style: build a
// frozen copy, then swap the pointer in a SnapshotCell). Readers pin an
// epoch with Praxi::snapshot() — a pointer copy under the cell's short
// kModelSnapshot lock, never waiting for a freeze — and predict through it
// for as long as they hold the pointer: every prediction made
// through one handle is answered by exactly one published epoch, even while
// the trainer keeps streaming SGD updates and publishing newer epochs.
// Retired epochs are freed by the last reader's shared_ptr release; the
// release hands the epoch's weight buffer back to the publisher, which
// refreshes it at only the slots SGD wrote since (ml::OnlineLearner::freeze),
// so a publish costs the size of the change, not of the 2^bits table.
//
// Predictions here are bit-identical to the live engine at the publish
// point: the tag-extraction, feature-hashing, and scoring code is the SAME
// code Praxi runs (columbus::Columbus, hash_tagset_features,
// ml::OnlineLearner) over frozen copies of the same state. Epochs share the
// immutable Columbus extractor and label space instead of copying them; the
// learner is held as a `const` frozen copy, so no snapshot code can mutate
// its weights.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "columbus/columbus.hpp"
#include "common/sync.hpp"
#include "common/thread_pool.hpp"
#include "core/top_n.hpp"
#include "fs/changeset.hpp"
#include "ml/features.hpp"
#include "ml/online_learner.hpp"

namespace praxi::core {

enum class LabelMode : std::uint8_t {
  kSingleLabel = 0,
  kMultiLabel = 1,
};

/// The one tags -> feature-vector kernel (log1p tag-frequency damping +
/// L2 normalization, paper §III-C), shared by the live engine and every
/// snapshot so the two paths cannot drift. The TagView form hashes ranked
/// tags straight out of an extraction scratch; the TagSet form runs the
/// same kernel over owned tags.
ml::FeatureVector hash_tagset_features(const ml::FeatureHasher& hasher,
                                       std::span<const columbus::TagView> tags);
ml::FeatureVector hash_tagset_features(const ml::FeatureHasher& hasher,
                                       const columbus::TagSet& tagset);

class ModelSnapshot {
 public:
  /// Built by Praxi's publish path; not meant for direct construction.
  ModelSnapshot(std::uint64_t epoch, LabelMode mode, bool trained,
                std::shared_ptr<const columbus::Columbus> columbus,
                ml::FeatureHasher hasher, ml::OnlineLearner learner)
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
  ml::FeatureVector features_of(const columbus::TagSet& tagset) const {
    return hash_tagset_features(hasher_, tagset);
  }

  // -- Prediction (no lock: everything below reads frozen state) ----------

  /// Top-n application labels (n is ignored and treated as 1 in
  /// single-label mode). Throws std::logic_error on an untrained epoch.
  std::vector<std::string> predict(const fs::Changeset& changeset,
                                   std::size_t n = 1) const;
  std::vector<std::string> predict_tags(const columbus::TagSet& tagset,
                                        std::size_t n = 1) const;

  /// Batch prediction over raw changesets, input order preserved. `pool`
  /// only changes wall-clock time, never results. Like the single-item
  /// form, each item hashes its ranked tags straight out of the thread's
  /// extraction scratch, so no TagSet is built; labels are identical to
  /// predict_tags(extract_tags(...)).
  std::vector<std::vector<std::string>> predict(
      std::span<const fs::Changeset* const> changesets, TopN n = {},
      ThreadPool* pool = nullptr) const;

  /// Batch prediction over decoded wire views (server ingest); same
  /// contract and labels as the Changeset batch above.
  std::vector<std::vector<std::string>> predict(
      std::span<const fs::ChangesetView* const> changesets, TopN n = {},
      ThreadPool* pool = nullptr) const;

  /// Batch prediction over pre-extracted tagsets (the §V-C path).
  std::vector<std::vector<std::string>> predict_tags(
      std::span<const columbus::TagSet> tagsets, TopN n = {},
      ThreadPool* pool = nullptr) const;

  /// Ranked (label, confidence) pairs; higher is more likely in both modes.
  std::vector<std::pair<std::string, float>> ranked(
      const columbus::TagSet& tagset) const;

 private:
  /// The one changeset -> labels kernel behind every predict() form:
  /// extract_ranked on this thread's scratch, hash the tag views, score.
  /// Defined for fs::Changeset and fs::ChangesetView.
  template <typename AnyChangeset>
  std::vector<std::string> predict_one(const AnyChangeset& changeset,
                                       std::size_t n) const;
  template <typename AnyChangeset>
  std::vector<std::vector<std::string>> predict_batch(
      std::span<const AnyChangeset* const> changesets, TopN n,
      ThreadPool* pool) const;

  std::uint64_t epoch_;
  LabelMode mode_;
  bool trained_;
  std::shared_ptr<const columbus::Columbus> columbus_;
  ml::FeatureHasher hasher_;
  const ml::OnlineLearner learner_;
};

/// The handle readers hold. Pin once per batch of work (one pointer copy),
/// predict freely, drop when done — the epoch stays alive exactly as long
/// as someone can still predict through it.
using ModelSnapshotPtr = std::shared_ptr<const ModelSnapshot>;

/// The cell a Praxi publishes its epochs through (docs/CONCURRENCY.md).
/// The current epoch is guarded by a ranked common::Mutex that only ever
/// covers a pointer copy or swap, so readers never wait for a freeze;
/// publishers also hold publish_mutex() across building the next epoch,
/// because the freeze mutates the live learner. Both locks are visible to
/// Thread Safety Analysis, the rank checker and ThreadSanitizer alike.
/// Copying or moving a cell shares the source's current epoch under fresh
/// locks.
class SnapshotCell {
 public:
  SnapshotCell() = default;
  SnapshotCell(const SnapshotCell& other) : current_(other.load()) {}
  SnapshotCell& operator=(const SnapshotCell& other) {
    exchange(other.load());
    return *this;
  }

  /// Pins the current epoch (null before the first publish).
  ModelSnapshotPtr load() const {
    common::LockGuard lock(mutex_);
    return current_;
  }
  /// Epoch of the current snapshot (0 before the first publish).
  std::uint64_t epoch() const {
    common::LockGuard lock(mutex_);
    return current_ ? current_->epoch() : 0;
  }

  /// Serializes publishers (rank kModelPublish).
  common::Mutex& publish_mutex() PRAXI_RETURN_CAPABILITY(publish_mutex_) {
    return publish_mutex_;
  }
  /// Swaps `next` in and returns the retired epoch, so the caller drops it
  /// after the cell lock is released.
  ModelSnapshotPtr exchange(ModelSnapshotPtr next) {
    common::LockGuard lock(mutex_);
    current_.swap(next);
    return next;
  }

 private:
  common::Mutex publish_mutex_{"model_publish",
                               common::LockRank::kModelPublish};
  mutable common::Mutex mutex_{"model_snapshot",
                               common::LockRank::kModelSnapshot};
  ModelSnapshotPtr current_ PRAXI_GUARDED_BY(mutex_);
};

}  // namespace praxi::core
