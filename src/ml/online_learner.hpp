// Vowpal-Wabbit-style online multiclass learner (paper §III-C).
//
// A single shared weight table holds every class's weights: the slot for
// feature f under class c is a cheap mix of the feature's hashed index and
// the class id, exactly the trick VW uses for its one-against-all (OAA)
// reductions. Training is sparse gradient descent.
//
// One ml::OnlineLearner serves both of the paper's reductions; they differ
// only in the update rule and in how a prediction reads the scores:
//   * Reduction::kOaa   — single-label multiclass (VW --oaa): hinge-loss
//     steps, prediction is the argmax class;
//   * Reduction::kCsoaa — cost-sensitive one-against-all for multi-label
//     changesets (VW --csoaa): each class's scorer regresses toward cost 0
//     (label present) or 1 (absent); prediction returns the n lowest-cost
//     labels.
//
// Both support incremental ("online") training: new labels register classes
// on the fly and existing models keep learning from new examples without a
// restart — the capability that distinguishes Praxi from DeltaSherlock.
// The frozen form a model snapshot serves is a `const` OnlineLearner made by
// freeze() (core/model_snapshot.hpp), so live and frozen predictions run the
// same code. A frozen copy shares the label space and keeps its weights in
// a recycled buffer refreshed at only the slots SGD wrote since it was last
// used, so a publish costs the size of the change, not of the table.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "ml/features.hpp"

namespace praxi::ml {

struct OnlineLearnerConfig {
  unsigned bits = 18;          ///< log2 of the shared weight-table size.
  float learning_rate = 0.5f;  ///< initial step size.
  float power_t = 0.5f;        ///< lr decay exponent (VW's --power_t).
  float l2 = 1e-7f;            ///< L2 regularization strength.
  unsigned passes = 6;         ///< epochs over the training set.
  std::uint64_t seed = 1;      ///< shuffle seed.
};

/// Registry mapping label strings <-> dense class ids, growable online.
class LabelSpace {
 public:
  /// Returns the class id for `label`, registering it if new.
  std::uint32_t intern(const std::string& label);
  /// Returns the id if known.
  std::optional<std::uint32_t> lookup(const std::string& label) const;
  const std::string& name(std::uint32_t id) const { return names_.at(id); }
  std::uint32_t size() const { return static_cast<std::uint32_t>(names_.size()); }
  const std::vector<std::string>& names() const { return names_; }

 private:
  std::unordered_map<std::string, std::uint32_t> ids_;
  std::vector<std::string> names_;
};

namespace detail {

/// The one spare buffer a live table's retired frozen copies hand back to
/// (defined in online_learner.cpp). Shared with every frozen copy's deleter,
/// so it outlives the table when a reader holds an epoch longer.
class SpareSlot;

/// Shared weight table with per-class slot mixing and SGD updates.
///
/// A live table also logs the slots update() writes, so freeze() can refresh
/// a recycled frozen buffer at only those slots instead of copying the whole
/// table (the O(delta) snapshot publish, docs/API.md).
class WeightTable {
 public:
  explicit WeightTable(unsigned bits);
  /// Deep copy. The copy starts with no write log and its own spare slot,
  /// so it never recycles a buffer frozen from `other`.
  WeightTable(const WeightTable& other);
  WeightTable& operator=(const WeightTable& other);
  WeightTable(WeightTable&&) noexcept = default;
  WeightTable& operator=(WeightTable&&) noexcept = default;

  float score(const FeatureVector& x, std::uint32_t class_id) const;
  /// w[slot] += step * value for every feature (plus L2 shrinkage).
  void update(const FeatureVector& x, std::uint32_t class_id, float step,
              float l2);

  std::size_t size_bytes() const { return slots() * sizeof(float); }
  std::span<const float> raw() const { return {weights_.get(), slots()}; }
  /// Replaces the whole table (snapshot restore) and recounts occupancy.
  void set_raw(const std::vector<float>& weights);
  /// Zeroes every slot (learner reset).
  void clear();
  unsigned bits() const { return bits_; }

  /// Number of nonzero slots, maintained incrementally by update() so the
  /// occupancy gauge costs O(1) to read.
  std::size_t occupancy() const { return nonzero_; }
  std::size_t slots() const { return std::size_t{mask_} + 1; }

  /// Immutable copy of the current weights for a snapshot epoch. Its buffer
  /// goes back to this table's spare slot when the last copy of it is
  /// destroyed. When the spare holds the buffer of the freeze before the
  /// last one and every write since then is logged, only the logged slots
  /// are copied into it; otherwise the whole table is. `full_copy` says
  /// which.
  WeightTable freeze(bool& full_copy);
  /// Drops the write log: the next two freezes copy the whole table. For
  /// bulk writers (train()), whose writes would overflow the log anyway.
  void forget_writes();

 private:
  /// A frozen table around `weights` (freeze()).
  WeightTable(unsigned bits, std::size_t nonzero,
              std::shared_ptr<float[]> weights);

  std::uint32_t slot(std::uint32_t feature_index,
                     std::uint32_t class_id) const {
    // Golden-ratio mixing keeps distinct classes' views of the table
    // decorrelated without rehashing every feature per class.
    return (feature_index ^ (class_id * 0x9e3779b9u)) & mask_;
  }
  /// Whether update() should log `count` more writes; drops the log once
  /// it would pass its cap.
  bool log_writes(std::size_t count);

  unsigned bits_;
  std::uint32_t mask_;
  /// Live tables own theirs; a frozen table's deleter hands it back to the
  /// spare slot of the live table it was frozen from.
  std::shared_ptr<float[]> weights_;
  std::size_t nonzero_ = 0;

  // Delta-publish state (live tables only; empty in frozen ones).
  std::shared_ptr<SpareSlot> spare_;
  /// Slots written since the last freeze, and in the interval before it.
  std::vector<std::uint32_t> written_;
  std::vector<std::uint32_t> written_before_;
  /// Whether written_ / written_before_ list every write of their interval.
  bool logging_ = false;
  bool logged_before_ = false;
  /// Stamps of the buffers filled by the last freeze and the one before
  /// (0 = none). Stamps are unique across all tables, so a buffer frozen
  /// from another table can never match.
  std::uint64_t current_stamp_ = 0;
  std::uint64_t retired_stamp_ = 0;
};

}  // namespace detail

/// Which VW-style reduction a learner runs.
enum class Reduction : std::uint8_t {
  kOaa = 0,    ///< single-label one-against-all
  kCsoaa = 1,  ///< cost-sensitive OAA (multi-label)
};

/// Labeled sparse example. OAA takes exactly one label, CSOAA a label set.
struct Example {
  FeatureVector features;
  std::vector<std::string> labels;
};

class OnlineLearner {
 public:
  explicit OnlineLearner(Reduction reduction, OnlineLearnerConfig config = {});

  /// Full training run: `passes` shuffled epochs over `examples`.
  /// Calling this again with more data continues from the current weights
  /// (incremental training); call reset() first for train-from-scratch.
  void train(const std::vector<Example>& examples);

  /// Single online update (one example, one step). Throws
  /// std::invalid_argument when an OAA example does not carry exactly one
  /// label.
  void learn_one(const FeatureVector& features,
                 const std::vector<std::string>& labels);

  /// OAA: the highest-scoring label alone (n is ignored; the label is empty
  /// while no class is registered). CSOAA: the n labels with the lowest
  /// predicted cost (paper: the ground-truth application count is provided
  /// at evaluation time, §V-B).
  std::vector<std::string> predict(const FeatureVector& features,
                                   std::size_t n = 1) const;

  /// All (label, confidence) pairs, descending: the raw margin under OAA,
  /// the negated predicted cost under CSOAA — higher is more likely in both.
  std::vector<std::pair<std::string, float>> ranked(
      const FeatureVector& features) const;

  void reset();

  /// The frozen copy a snapshot epoch serves (core/model_snapshot.hpp). It
  /// shares the label space, which is immutable once shared (learn_one()
  /// replaces it when it interns a new label), and holds its weights in a
  /// buffer recycled from an earlier retired copy (WeightTable::freeze).
  /// `full_copy` reports whether the whole weight table was copied.
  OnlineLearner freeze(bool& full_copy);

  const LabelSpace& labels() const { return *labels_; }
  std::size_t size_bytes() const { return table_.size_bytes(); }
  std::uint64_t update_count() const { return update_count_; }

  /// Re-syncs the occupancy gauges (praxi_ml_used_weight_slots /
  /// praxi_ml_weight_slots) from the table's ground truth. learn_one()
  /// maintains them incrementally; the snapshot publisher calls this so the
  /// gauges can never drift across an epoch swap, restores included
  /// (docs/OBSERVABILITY.md).
  void sync_occupancy_gauges() const;

  /// POA1 (OAA) or PCS2 (CSOAA) snapshot; the payload layout is shared.
  std::string to_binary() const;
  /// Opens only `reduction`'s magic: a PCS2 blob is not an OAA model.
  static OnlineLearner from_binary(std::string_view bytes,
                                   Reduction reduction);

 private:
  /// A frozen copy around a shared label space and a frozen table.
  OnlineLearner(Reduction reduction, OnlineLearnerConfig config,
                std::shared_ptr<const LabelSpace> labels,
                detail::WeightTable table)
      : reduction_(reduction),
        config_(config),
        labels_(std::move(labels)),
        table_(std::move(table)) {}

  float next_learning_rate();
  /// Class ids of `labels`, registering the new ones in a fresh copy of the
  /// label space so that frozen copies sharing the old one never change.
  std::vector<std::uint32_t> intern(const std::vector<std::string>& labels);
  /// Index of the highest-scoring class (first wins ties); requires at
  /// least one registered class.
  std::uint32_t argmax(const FeatureVector& features) const;
  /// ranked() without the prediction counter.
  std::vector<std::pair<std::string, float>> rank(
      const FeatureVector& features) const;

  Reduction reduction_;
  OnlineLearnerConfig config_;
  std::shared_ptr<const LabelSpace> labels_;
  detail::WeightTable table_;
  std::uint64_t update_count_ = 0;
};

}  // namespace praxi::ml
