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
// The frozen form a model snapshot serves is simply a `const` copy of the
// learner (core/model_snapshot.hpp), so live and frozen predictions run the
// same code.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
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

/// Shared weight table with per-class slot mixing and SGD updates.
class WeightTable {
 public:
  explicit WeightTable(unsigned bits);

  float score(const FeatureVector& x, std::uint32_t class_id) const;
  /// w[slot] += step * value for every feature (plus L2 shrinkage).
  void update(const FeatureVector& x, std::uint32_t class_id, float step,
              float l2);

  std::size_t size_bytes() const { return weights_.size() * sizeof(float); }
  const std::vector<float>& raw() const { return weights_; }
  /// Replaces the whole table (snapshot restore) and recounts occupancy.
  void set_raw(std::vector<float> weights);
  unsigned bits() const { return bits_; }

  /// Number of nonzero slots, maintained incrementally by update() so the
  /// occupancy gauge costs O(1) to read.
  std::size_t occupancy() const { return nonzero_; }
  std::size_t slots() const { return weights_.size(); }

 private:
  std::uint32_t slot(std::uint32_t feature_index,
                     std::uint32_t class_id) const {
    // Golden-ratio mixing keeps distinct classes' views of the table
    // decorrelated without rehashing every feature per class.
    return (feature_index ^ (class_id * 0x9e3779b9u)) & mask_;
  }

  unsigned bits_;
  std::uint32_t mask_;
  std::vector<float> weights_;
  std::size_t nonzero_ = 0;
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

  const LabelSpace& labels() const { return labels_; }
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
  float next_learning_rate();
  /// Index of the highest-scoring class (first wins ties); requires at
  /// least one registered class.
  std::uint32_t argmax(const FeatureVector& features) const;
  /// ranked() without the prediction counter.
  std::vector<std::pair<std::string, float>> rank(
      const FeatureVector& features) const;

  Reduction reduction_;
  OnlineLearnerConfig config_;
  LabelSpace labels_;
  detail::WeightTable table_;
  std::uint64_t update_count_ = 0;
};

}  // namespace praxi::ml
