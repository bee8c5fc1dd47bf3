// Praxi: hybrid practice + learning software discovery (paper §III).
//
// Pipeline: changeset --Columbus--> tagset --feature hashing--> online
// learner. No dictionary, no fingerprint regeneration: tagsets are generated
// once per changeset, independently of every other changeset, and the
// Vowpal-Wabbit-style learner updates incrementally when new applications
// appear. That combination is what buys the paper's 14.8x runtime and 87%
// storage improvements over DeltaSherlock at comparable accuracy.
//
// The class supports both of the paper's problem settings, each served by
// one ml::OnlineLearner running the matching reduction:
//   * kSingleLabel — one application per changeset (OAA, §V-A);
//   * kMultiLabel  — 2..5 applications per changeset (CSOAA, §V-B), where
//     prediction takes the known or inferred application count n.
//
// Serve-while-learn (docs/API.md, docs/CONCURRENCY.md): prediction goes
// through immutable, refcounted ModelSnapshots. Every learn batch ends by
// publishing a new epoch — build a frozen copy of the model, swap the
// pointer in the SnapshotCell (RCU-style). The frozen copy shares the
// Columbus extractor and the label space, and refreshes a weight buffer
// recycled from an epoch readers have dropped at only the slots SGD wrote
// since, so a publish costs O(delta), not a copy of the whole weight table.
// snapshot() pins the current epoch with one pointer copy under the cell's
// short lock, so any number of predict threads read a consistent model,
// never waiting for a freeze, while learn_one()/train() keep mutating the
// live weights. All prediction goes through snapshot() (docs/API.md).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "columbus/columbus.hpp"
#include "common/runtime_config.hpp"
#include "common/thread_pool.hpp"
#include "core/model_snapshot.hpp"
#include "core/top_n.hpp"
#include "fs/changeset.hpp"
#include "ml/features.hpp"
#include "ml/online_learner.hpp"

namespace praxi::core {

struct PraxiConfig {
  LabelMode mode = LabelMode::kSingleLabel;
  columbus::ColumbusConfig columbus;
  ml::OnlineLearnerConfig learner;
  /// Cross-cutting runtime knobs (worker threads for the batch APIs,
  /// snapshot publish cadence). See
  /// common/runtime_config.hpp for the precedence rule: whoever applies a
  /// RuntimeConfig last wins, and embedding hosts (DiscoveryServer, the
  /// CLI) re-apply theirs after constructing the engine. Batch results are
  /// identical for every num_threads value — threading only changes
  /// wall-clock time.
  common::RuntimeConfig runtime;
};

/// Wall-clock and storage accounting for the most recent train()/predict
/// activity, feeding the Table III comparison.
struct PraxiOverhead {
  double tag_extraction_s = 0.0;
  double train_s = 0.0;
  std::size_t tagset_bytes = 0;  ///< total stored-tagset footprint
  std::size_t model_bytes = 0;
};

/// Copying a trained Praxi copies the model (and shares the thread pool and
/// the immutable Columbus extractor); the copy starts at the source's
/// current epoch and publishes independently from there, never recycling
/// the source's weight buffers. Copy and move are the implicit members: the
/// SnapshotCell gives each copy its own locks.
class Praxi {
 public:
  explicit Praxi(PraxiConfig config = {});

  // -- Feature path --------------------------------------------------------

  /// Columbus tag extraction for one changeset (labels carried through).
  columbus::TagSet extract_tags(const fs::Changeset& changeset) const;

  /// Batch tag extraction, input order preserved. Runs on the configured
  /// thread pool; output is identical to calling extract_tags() in a loop.
  std::vector<columbus::TagSet> extract_tags(
      std::span<const fs::Changeset* const> changesets) const;

  /// Hashed feature vector for a tagset (tag frequency as feature value,
  /// L2-normalized).
  ml::FeatureVector features_of(const columbus::TagSet& tagset) const;

  // -- Training ------------------------------------------------------------

  /// Trains on labeled tagsets. Calling train() again CONTINUES from the
  /// current model (incremental / online training); call reset() first for
  /// a from-scratch run. Tagsets must carry exactly one label in
  /// kSingleLabel mode, one-or-more in kMultiLabel mode. Always publishes a
  /// new snapshot epoch when done, regardless of snapshot_publish_every.
  void train(const std::vector<columbus::TagSet>& tagsets);

  /// Convenience: Columbus + train over raw changesets.
  void train_changesets(const std::vector<const fs::Changeset*>& corpus);

  /// One online update from a single labeled tagset. Publishes a new epoch
  /// every RuntimeConfig::snapshot_publish_every updates (default 1 = after
  /// every update; 0 = only at train()/reset()/publish() boundaries).
  void learn_one(const columbus::TagSet& tagset);

  // -- Prediction (the snapshot surface, docs/API.md) ----------------------

  /// Pins the current published epoch: one pointer copy under the cell
  /// lock, which a publish holds only for a pointer swap. Predict through
  /// the returned handle — everything it answers comes from exactly that
  /// epoch, no matter how much learning happens meanwhile.
  ModelSnapshotPtr snapshot() const { return cell_.load(); }

  /// Freezes the live model into a new epoch and swaps it in, immediately.
  /// Usually implicit (train()/learn_one() publish per the cadence knob);
  /// explicit calls serve snapshot_publish_every == 0 flows. Returns the
  /// published handle. Thread-safe against concurrent publishers (rank
  /// kModelPublish) but NOT against concurrent model mutation — learning
  /// and publishing belong to the same logical writer, like every other
  /// non-const member.
  ModelSnapshotPtr publish();

  /// Epoch counter of the most recently published snapshot (0 = never — not
  /// observable in practice: construction publishes epoch 1).
  std::uint64_t epoch() const { return cell_.epoch(); }

  /// SGD updates applied since the last publish (staleness of the current
  /// snapshot relative to the live weights).
  std::uint64_t updates_since_publish() const {
    return updates_since_publish_;
  }

  /// The engine's batch-API worker pool (nullptr when num_threads == 1).
  /// Pass it to the snapshot batch predict/extract calls to keep the
  /// configured parallelism on the snapshot surface.
  ThreadPool* pool() const { return pool_.get(); }

  // -- Lifecycle -----------------------------------------------------------

  void reset();
  bool trained() const { return trained_; }
  LabelMode mode() const { return config_.mode; }

  /// Reconfigures the batch-API worker count (0 = hardware_concurrency,
  /// 1 = sequential). Cheap when the resolved count is unchanged.
  void set_num_threads(std::size_t num_threads);
  std::size_t num_threads() const { return config_.runtime.num_threads; }

  /// Applies a whole RuntimeConfig (threads + metrics toggle + snapshot
  /// cadence). Per the precedence rule in common/runtime_config.hpp the
  /// caller that applies last wins — embedding hosts call this after
  /// construction to override whatever the model snapshot or defaults said.
  void set_runtime(const common::RuntimeConfig& runtime);
  const common::RuntimeConfig& runtime() const { return config_.runtime; }
  const ml::LabelSpace& labels() const { return learner_.labels(); }
  const PraxiOverhead& overhead() const { return overhead_; }
  std::size_t model_bytes() const { return learner_.size_bytes(); }

  std::string to_binary() const;
  static Praxi from_binary(std::string_view bytes);

 private:
  /// Builds the model around an already-built learner (from_binary's
  /// restored weights) and publishes it as epoch 1.
  Praxi(PraxiConfig config, ml::OnlineLearner learner, bool trained);

  /// Freeze + cell swap under the publish lock; updates the
  /// praxi_ml_snapshot_* instruments and re-syncs the learner occupancy
  /// gauges so they cannot drift across epoch swaps.
  ModelSnapshotPtr publish_snapshot();
  /// learn_one()'s publish cadence (snapshot_publish_every).
  void maybe_publish_after_update();

  PraxiConfig config_;
  /// Immutable; shared with every published epoch.
  std::shared_ptr<const columbus::Columbus> columbus_;
  ml::FeatureHasher hasher_;
  ml::OnlineLearner learner_;
  PraxiOverhead overhead_;
  bool trained_ = false;
  /// Lives only when num_threads != 1; shared so copies of a model reuse
  /// one pool instead of spawning workers per copy.
  std::shared_ptr<ThreadPool> pool_;

  /// The RCU cell and the one source of the current epoch.
  SnapshotCell cell_;
  std::uint64_t updates_since_publish_ = 0;
};

}  // namespace praxi::core
