#include "ml/online_learner.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "common/rng.hpp"
#include "common/serialize.hpp"
#include "obs/metrics.hpp"

namespace praxi::ml {

namespace {

/// Per-reduction learner instruments (docs/OBSERVABILITY.md): one struct per
/// `reduction` label value, each cached in a single static. Live learners
/// and the frozen copies snapshots serve feed the same series.
struct LearnerInstruments {
  obs::Counter& updates;
  obs::Counter& predictions;
  obs::Gauge& used_slots;
  obs::Gauge& total_slots;

  explicit LearnerInstruments(const char* reduction)
      : updates(obs::MetricsRegistry::global().counter(
            "praxi_ml_updates_total", "Online SGD example updates applied",
            {{"reduction", reduction}})),
        predictions(obs::MetricsRegistry::global().counter(
            "praxi_ml_predictions_total", "Score/cost rankings computed",
            {{"reduction", reduction}})),
        used_slots(obs::MetricsRegistry::global().gauge(
            "praxi_ml_used_weight_slots", "Nonzero weight-table slots",
            {{"reduction", reduction}})),
        total_slots(obs::MetricsRegistry::global().gauge(
            "praxi_ml_weight_slots", "Total weight-table slots (2^bits)",
            {{"reduction", reduction}})) {}
};

LearnerInstruments& instruments_for(Reduction reduction) {
  static LearnerInstruments oaa("oaa");
  static LearnerInstruments csoaa("csoaa");
  return reduction == Reduction::kOaa ? oaa : csoaa;
}

}  // namespace

// ---------------------------------------------------------------------------
// LabelSpace
// ---------------------------------------------------------------------------

std::uint32_t LabelSpace::intern(const std::string& label) {
  auto it = ids_.find(label);
  if (it != ids_.end()) return it->second;
  const auto id = static_cast<std::uint32_t>(names_.size());
  names_.push_back(label);
  ids_.emplace(label, id);
  return id;
}

std::optional<std::uint32_t> LabelSpace::lookup(
    const std::string& label) const {
  auto it = ids_.find(label);
  if (it == ids_.end()) return std::nullopt;
  return it->second;
}

// ---------------------------------------------------------------------------
// WeightTable
// ---------------------------------------------------------------------------

namespace detail {

namespace {

/// Validates bits BEFORE any shift happens: the member initializers below
/// run before the constructor body, so checking there would come after
/// `1u << bits` had already invoked UB for bits >= 32.
unsigned checked_table_bits(unsigned bits) {
  if (bits == 0 || bits > 30)
    throw std::invalid_argument("WeightTable: bits must be in [1, 30]");
  return bits;
}

}  // namespace

WeightTable::WeightTable(unsigned bits)
    : bits_(checked_table_bits(bits)),
      mask_((1u << bits_) - 1u),
      weights_(std::size_t{1} << bits_, 0.0f) {}

float WeightTable::score(const FeatureVector& x,
                         std::uint32_t class_id) const {
  float s = 0.0f;
  for (const Feature& f : x) s += weights_[slot(f.index, class_id)] * f.value;
  return s;
}

void WeightTable::update(const FeatureVector& x, std::uint32_t class_id,
                         float step, float l2) {
  for (const Feature& f : x) {
    float& w = weights_[slot(f.index, class_id)];
    const bool was_zero = w == 0.0f;
    w += step * f.value - l2 * w;
    const bool is_zero = w == 0.0f;
    if (was_zero && !is_zero) ++nonzero_;
    if (!was_zero && is_zero) --nonzero_;
  }
}

void WeightTable::set_raw(std::vector<float> weights) {
  weights_ = std::move(weights);
  nonzero_ = static_cast<std::size_t>(
      std::count_if(weights_.begin(), weights_.end(),
                    [](float w) { return w != 0.0f; }));
}

}  // namespace detail

namespace {

/// VW-style decaying step size: lr * (t0 / (t0 + t))^power_t.
float decayed_learning_rate(float lr, float power_t, std::uint64_t t) {
  constexpr double t0 = 1000.0;
  return lr * static_cast<float>(
                  std::pow(t0 / (t0 + static_cast<double>(t)), power_t));
}

void write_label_space(BinaryWriter& w, const LabelSpace& labels) {
  w.put<std::uint32_t>(labels.size());
  for (const auto& name : labels.names()) w.put_string(name);
}

void read_label_space(BinaryReader& r, LabelSpace& labels) {
  const auto count = r.get<std::uint32_t>();
  // Each label costs at least a 4-byte length prefix, so a count the
  // remaining bytes cannot hold is hostile.
  if (count > r.remaining() / sizeof(std::uint32_t)) {
    throw SerializeError("label count " + std::to_string(count) +
                             " exceeds remaining bytes",
                         r.position());
  }
  for (std::uint32_t i = 0; i < count; ++i) labels.intern(r.get_string());
}

// Snapshot identities (see docs/PERSISTENCE.md).
constexpr std::uint32_t kOaaMagic = 0x504f4131U;    // "POA1"
constexpr std::uint32_t kCsoaaMagic = 0x50435332U;  // "PCS2"
constexpr std::uint32_t kLearnerVersion = 1;

std::uint32_t magic_of(Reduction reduction) {
  return reduction == Reduction::kOaa ? kOaaMagic : kCsoaaMagic;
}

/// Payload layout shared by both reductions (they differ only in magic).
std::string learner_payload(const OnlineLearnerConfig& config,
                            std::uint64_t update_count,
                            const LabelSpace& labels,
                            const std::vector<float>& weights) {
  BinaryWriter w;
  w.put<std::uint32_t>(config.bits);
  w.put<float>(config.learning_rate);
  w.put<float>(config.power_t);
  w.put<float>(config.l2);
  w.put<std::uint32_t>(config.passes);
  w.put<std::uint64_t>(config.seed);
  w.put<std::uint64_t>(update_count);
  write_label_space(w, labels);
  w.put_vector(weights);
  return w.take();
}

/// Decoded learner payload, validated but not yet materialized as a model.
struct LearnerParts {
  OnlineLearnerConfig config;
  std::uint64_t update_count = 0;
  LabelSpace labels;
  std::vector<float> weights;
};

/// Parses and strictly validates a learner payload. Everything is checked
/// BEFORE any table-sized allocation happens, so a hostile or corrupt blob
/// can neither UB-shift on `bits` nor allocate more than the blob itself
/// holds.
LearnerParts parse_learner_payload(std::string_view payload, const char* what) {
  BinaryReader r(payload);
  LearnerParts parts;
  parts.config.bits = r.get<std::uint32_t>();
  if (parts.config.bits == 0 || parts.config.bits > 30) {
    throw SerializeError(std::string(what) + ": bits out of range [1, 30]: " +
                         std::to_string(parts.config.bits));
  }
  parts.config.learning_rate = r.get<float>();
  parts.config.power_t = r.get<float>();
  parts.config.l2 = r.get<float>();
  parts.config.passes = r.get<std::uint32_t>();
  parts.config.seed = r.get<std::uint64_t>();
  parts.update_count = r.get<std::uint64_t>();
  read_label_space(r, parts.labels);
  parts.weights = r.get_vector<float>();
  if (parts.weights.size() != (std::size_t{1} << parts.config.bits)) {
    throw SerializeError(std::string(what) + ": weight table size " +
                         std::to_string(parts.weights.size()) +
                         " does not match 2^bits");
  }
  r.require_end(what);
  return parts;
}

}  // namespace

// ---------------------------------------------------------------------------
// OnlineLearner
// ---------------------------------------------------------------------------

OnlineLearner::OnlineLearner(Reduction reduction, OnlineLearnerConfig config)
    : reduction_(reduction), config_(config), table_(config.bits) {}

float OnlineLearner::next_learning_rate() {
  return decayed_learning_rate(config_.learning_rate, config_.power_t,
                               update_count_++);
}

void OnlineLearner::learn_one(const FeatureVector& features,
                              const std::vector<std::string>& labels) {
  if (reduction_ == Reduction::kOaa) {
    if (labels.size() != 1) {
      throw std::invalid_argument(
          "OnlineLearner(kOaa): example must carry exactly one label");
    }
    const std::uint32_t truth = labels_.intern(labels.front());
    const float lr = next_learning_rate();
    for (std::uint32_t c = 0; c < labels_.size(); ++c) {
      const float target = c == truth ? 1.0f : -1.0f;
      const float margin = target * table_.score(features, c);
      if (margin < 1.0f) {
        table_.update(features, c, lr * target, config_.l2);
      }
    }
  } else {
    std::vector<std::uint32_t> present;
    present.reserve(labels.size());
    for (const auto& label : labels) present.push_back(labels_.intern(label));

    const float lr = next_learning_rate();
    for (std::uint32_t c = 0; c < labels_.size(); ++c) {
      const bool is_present =
          std::find(present.begin(), present.end(), c) != present.end();
      // Regress the class score toward the example's cost: 0 when the
      // package is present in the sample, 1 when absent (paper §III-C).
      const float cost = is_present ? 0.0f : 1.0f;
      const float prediction = table_.score(features, c);
      const float gradient = prediction - cost;
      // Importance-weight the rare "present" side so 2-5 positives are not
      // drowned out by ~80 negatives.
      const float importance = is_present ? 4.0f : 1.0f;
      table_.update(features, c, -lr * importance * gradient, config_.l2);
    }
  }
  instruments_for(reduction_).updates.inc();
  sync_occupancy_gauges();
}

void OnlineLearner::train(const std::vector<Example>& examples) {
  // Register every label before the first pass so all binary problems see
  // negatives from the start of training.
  for (const auto& ex : examples) {
    for (const auto& label : ex.labels) labels_.intern(label);
  }

  std::vector<std::size_t> order(examples.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  // The shuffle stream is named per reduction; renaming it would change
  // the weights every existing training run produces.
  Rng rng(config_.seed,
          reduction_ == Reduction::kOaa ? "oaa/shuffle" : "csoaa/shuffle");
  for (unsigned pass = 0; pass < config_.passes; ++pass) {
    std::shuffle(order.begin(), order.end(), rng);
    for (std::size_t idx : order) {
      learn_one(examples[idx].features, examples[idx].labels);
    }
  }
}

std::uint32_t OnlineLearner::argmax(const FeatureVector& features) const {
  std::uint32_t best = 0;
  float best_score = table_.score(features, 0);
  for (std::uint32_t c = 1; c < labels_.size(); ++c) {
    const float s = table_.score(features, c);
    if (s > best_score) {
      best_score = s;
      best = c;
    }
  }
  return best;
}

std::vector<std::pair<std::string, float>> OnlineLearner::rank(
    const FeatureVector& features) const {
  const float sign = reduction_ == Reduction::kOaa ? 1.0f : -1.0f;
  std::vector<std::pair<std::string, float>> out;
  out.reserve(labels_.size());
  for (std::uint32_t c = 0; c < labels_.size(); ++c) {
    out.emplace_back(labels_.name(c), sign * table_.score(features, c));
  }
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });
  return out;
}

std::vector<std::string> OnlineLearner::predict(const FeatureVector& features,
                                                std::size_t n) const {
  instruments_for(reduction_).predictions.inc();
  if (reduction_ == Reduction::kOaa) {
    if (labels_.size() == 0) return {std::string()};
    return {labels_.name(argmax(features))};
  }
  auto ranked = rank(features);
  std::vector<std::string> out;
  out.reserve(std::min(n, ranked.size()));
  for (std::size_t i = 0; i < ranked.size() && i < n; ++i) {
    out.push_back(std::move(ranked[i].first));
  }
  return out;
}

std::vector<std::pair<std::string, float>> OnlineLearner::ranked(
    const FeatureVector& features) const {
  instruments_for(reduction_).predictions.inc();
  return rank(features);
}

void OnlineLearner::sync_occupancy_gauges() const {
  auto& instruments = instruments_for(reduction_);
  instruments.used_slots.set(static_cast<double>(table_.occupancy()));
  instruments.total_slots.set(static_cast<double>(table_.slots()));
}

void OnlineLearner::reset() {
  table_ = detail::WeightTable(config_.bits);
  labels_ = LabelSpace{};
  update_count_ = 0;
}

std::string OnlineLearner::to_binary() const {
  return seal_snapshot(
      magic_of(reduction_), kLearnerVersion,
      learner_payload(config_, update_count_, labels_, table_.raw()));
}

OnlineLearner OnlineLearner::from_binary(std::string_view bytes,
                                         Reduction reduction) {
  const Snapshot snap = open_snapshot(bytes, magic_of(reduction),
                                      kLearnerVersion, kLearnerVersion);
  LearnerParts parts = parse_learner_payload(
      snap.payload, reduction == Reduction::kOaa ? "OAA model" : "CSOAA model");
  OnlineLearner model(reduction, parts.config);
  model.update_count_ = parts.update_count;
  model.labels_ = std::move(parts.labels);
  model.table_.set_raw(std::move(parts.weights));
  return model;
}

}  // namespace praxi::ml
