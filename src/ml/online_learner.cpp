#include "ml/online_learner.hpp"

#include <algorithm>
#include <atomic>
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

/// Holds at most one retired frozen buffer for the live table that froze
/// it. A frozen table's deleter hands its buffer back with one atomic
/// exchange: it runs on whichever reader thread drops the last handle,
/// under whatever locks that thread holds, so it takes none.
class SpareSlot {
 public:
  SpareSlot() = default;
  SpareSlot(const SpareSlot&) = delete;
  SpareSlot& operator=(const SpareSlot&) = delete;
  ~SpareSlot() { delete spare_.load(); }

  /// One frozen buffer and the stamp of the freeze that filled it.
  struct Buffer {
    std::unique_ptr<float[]> weights;
    std::uint64_t stamp = 0;
  };

  /// Keeps `buffer` as the spare and frees the one it displaces.
  void give_back(Buffer* buffer) {
    delete spare_.exchange(buffer);
  }
  /// Takes the spare (null when there is none).
  std::unique_ptr<Buffer> take() {
    return std::unique_ptr<Buffer>(spare_.exchange(nullptr));
  }

 private:
  std::atomic<Buffer*> spare_{nullptr};
};

namespace {

/// Freeze stamps, unique across every table in the process (0 = none).
std::uint64_t next_freeze_stamp() {
  static std::atomic<std::uint64_t> last{0};
  return last.fetch_add(1) + 1;
}

/// Write-log cap as a fraction of the table, per publish interval. A
/// refresh copies two intervals' logs, so at the cap it copies 1/16 of the
/// slots, scattered: 16,384 slot copies at bits = 18, measured at about the
/// cost of one sequential copy of the whole 1 MiB table.
constexpr std::size_t kLogFraction = 32;

/// frozen[s] = live[s] for every logged slot. The slots are scattered, so
/// each copy misses the cache; prefetching a few slots ahead overlaps the
/// misses (about 1.7x faster than the plain loop).
void copy_slots(const std::vector<std::uint32_t>& slots, const float* live,
                float* frozen) {
  constexpr std::size_t kAhead = 16;
  for (std::size_t i = 0; i < slots.size(); ++i) {
    if (i + kAhead < slots.size()) {
      __builtin_prefetch(frozen + slots[i + kAhead], 1);
      __builtin_prefetch(live + slots[i + kAhead]);
    }
    frozen[slots[i]] = live[slots[i]];
  }
}

}  // namespace

WeightTable::WeightTable(unsigned bits)
    : bits_(checked_table_bits(bits)),
      mask_((1u << bits_) - 1u),
      weights_(std::make_shared<float[]>(slots())),
      spare_(std::make_shared<SpareSlot>()) {}

WeightTable::WeightTable(const WeightTable& other)
    : bits_(other.bits_),
      mask_(other.mask_),
      weights_(std::make_shared_for_overwrite<float[]>(slots())),
      nonzero_(other.nonzero_),
      spare_(std::make_shared<SpareSlot>()) {
  std::copy_n(other.weights_.get(), slots(), weights_.get());
}

WeightTable& WeightTable::operator=(const WeightTable& other) {
  if (this != &other) *this = WeightTable(other);
  return *this;
}

WeightTable::WeightTable(unsigned bits, std::size_t nonzero,
                         std::shared_ptr<float[]> weights)
    : bits_(bits),
      mask_((1u << bits_) - 1u),
      weights_(std::move(weights)),
      nonzero_(nonzero) {}

float WeightTable::score(const FeatureVector& x,
                         std::uint32_t class_id) const {
  float s = 0.0f;
  for (const Feature& f : x) s += weights_[slot(f.index, class_id)] * f.value;
  return s;
}

bool WeightTable::log_writes(std::size_t count) {
  if (!logging_) return false;
  if (written_.size() + count <= slots() / kLogFraction) return true;
  logging_ = false;
  written_.clear();
  return false;
}

void WeightTable::update(const FeatureVector& x, std::uint32_t class_id,
                         float step, float l2) {
  const bool log = log_writes(x.size());
  for (const Feature& f : x) {
    const std::uint32_t s = slot(f.index, class_id);
    float& w = weights_[s];
    const bool was_zero = w == 0.0f;
    w += step * f.value - l2 * w;
    const bool is_zero = w == 0.0f;
    if (was_zero && !is_zero) ++nonzero_;
    if (!was_zero && is_zero) --nonzero_;
    if (log) written_.push_back(s);
  }
}

void WeightTable::set_raw(const std::vector<float>& weights) {
  if (weights.size() != slots()) {
    throw std::invalid_argument("WeightTable: restored size != 2^bits");
  }
  std::copy(weights.begin(), weights.end(), weights_.get());
  nonzero_ = static_cast<std::size_t>(
      std::count_if(weights.begin(), weights.end(),
                    [](float w) { return w != 0.0f; }));
  forget_writes();
}

void WeightTable::clear() {
  std::fill_n(weights_.get(), slots(), 0.0f);
  nonzero_ = 0;
  forget_writes();
}

void WeightTable::forget_writes() {
  logging_ = false;
  written_.clear();
}

WeightTable WeightTable::freeze(bool& full_copy) {
  std::unique_ptr<SpareSlot::Buffer> buffer = spare_->take();
  // The spare holds the weights of the freeze before the last one when its
  // stamp matches; the two logs then cover every write since.
  full_copy = !(buffer && retired_stamp_ != 0 &&
                buffer->stamp == retired_stamp_ && logged_before_ && logging_);
  if (!buffer) {
    buffer = std::make_unique<SpareSlot::Buffer>();
    buffer->weights = std::make_unique_for_overwrite<float[]>(slots());
  }
  float* frozen = buffer->weights.get();
  const float* live = weights_.get();
  if (full_copy) {
    std::copy_n(live, slots(), frozen);
  } else {
    copy_slots(written_before_, live, frozen);
    copy_slots(written_, live, frozen);
  }
  buffer->stamp = next_freeze_stamp();
  retired_stamp_ = current_stamp_;
  current_stamp_ = buffer->stamp;
  written_before_.swap(written_);
  written_.clear();
  logged_before_ = logging_;
  logging_ = true;

  SpareSlot::Buffer* owned = buffer.release();
  return WeightTable(
      bits_, nonzero_,
      std::shared_ptr<float[]>(
          frozen, [spare = spare_, owned](float*) { spare->give_back(owned); }));
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
                            std::span<const float> weights) {
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
    : reduction_(reduction),
      config_(config),
      labels_(std::make_shared<const LabelSpace>()),
      table_(config.bits) {}

std::vector<std::uint32_t> OnlineLearner::intern(
    const std::vector<std::string>& labels) {
  std::vector<std::uint32_t> ids;
  ids.reserve(labels.size());
  std::shared_ptr<LabelSpace> grown;  // copied on the first new label
  for (const auto& label : labels) {
    const LabelSpace& space = grown ? *grown : *labels_;
    if (const auto id = space.lookup(label)) {
      ids.push_back(*id);
      continue;
    }
    if (!grown) grown = std::make_shared<LabelSpace>(*labels_);
    ids.push_back(grown->intern(label));
  }
  if (grown) labels_ = std::move(grown);
  return ids;
}

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
    const std::uint32_t truth = intern(labels).front();
    const float lr = next_learning_rate();
    for (std::uint32_t c = 0; c < labels_->size(); ++c) {
      const float target = c == truth ? 1.0f : -1.0f;
      const float margin = target * table_.score(features, c);
      if (margin < 1.0f) {
        table_.update(features, c, lr * target, config_.l2);
      }
    }
  } else {
    const std::vector<std::uint32_t> present = intern(labels);
    const float lr = next_learning_rate();
    for (std::uint32_t c = 0; c < labels_->size(); ++c) {
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
  for (const auto& ex : examples) intern(ex.labels);
  // A training run rewrites far more slots than the write log holds.
  table_.forget_writes();

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
  for (std::uint32_t c = 1; c < labels_->size(); ++c) {
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
  out.reserve(labels_->size());
  for (std::uint32_t c = 0; c < labels_->size(); ++c) {
    out.emplace_back(labels_->name(c), sign * table_.score(features, c));
  }
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });
  return out;
}

std::vector<std::string> OnlineLearner::predict(const FeatureVector& features,
                                                std::size_t n) const {
  instruments_for(reduction_).predictions.inc();
  if (reduction_ == Reduction::kOaa) {
    if (labels_->size() == 0) return {std::string()};
    return {labels_->name(argmax(features))};
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
  table_.clear();
  labels_ = std::make_shared<const LabelSpace>();
  update_count_ = 0;
}

OnlineLearner OnlineLearner::freeze(bool& full_copy) {
  OnlineLearner frozen(reduction_, config_, labels_, table_.freeze(full_copy));
  frozen.update_count_ = update_count_;
  return frozen;
}

std::string OnlineLearner::to_binary() const {
  return seal_snapshot(
      magic_of(reduction_), kLearnerVersion,
      learner_payload(config_, update_count_, *labels_, table_.raw()));
}

OnlineLearner OnlineLearner::from_binary(std::string_view bytes,
                                         Reduction reduction) {
  const Snapshot snap = open_snapshot(bytes, magic_of(reduction),
                                      kLearnerVersion, kLearnerVersion);
  LearnerParts parts = parse_learner_payload(
      snap.payload, reduction == Reduction::kOaa ? "OAA model" : "CSOAA model");
  OnlineLearner model(reduction, parts.config);
  model.update_count_ = parts.update_count;
  model.labels_ =
      std::make_shared<const LabelSpace>(std::move(parts.labels));
  model.table_.set_raw(parts.weights);
  return model;
}

}  // namespace praxi::ml
