#include "core/praxi.hpp"

#include <stdexcept>

#include "common/serialize.hpp"
#include "common/stopwatch.hpp"
#include "common/sync.hpp"
#include "obs/metrics.hpp"
#include "obs/scoped_timer.hpp"

namespace praxi::core {

namespace {

// Engine-level instruments (docs/OBSERVABILITY.md): one histogram per
// pipeline verb, fed from the same Stopwatch clock as PraxiOverhead.
obs::Histogram& train_seconds() {
  static obs::Histogram& h = obs::MetricsRegistry::global().histogram(
      "praxi_engine_train_seconds", "Latency of one train()/train_changesets()",
      obs::latency_buckets());
  return h;
}


/// Serve-while-learn instruments (docs/API.md): the publish path is the
/// only writer of all of them, always under the publish lock.
struct SnapshotInstruments {
  obs::Histogram& publish_seconds;
  obs::Counter& publishes;
  obs::Gauge& epoch;
  obs::Gauge& stale_updates;
  obs::Gauge& retired_refs;
  obs::Counter& full_copies;

  SnapshotInstruments()
      : publish_seconds(obs::MetricsRegistry::global().histogram(
            "praxi_ml_snapshot_publish_seconds",
            "Latency of one snapshot freeze-and-swap (copy-on-write publish)",
            obs::latency_buckets())),
        publishes(obs::MetricsRegistry::global().counter(
            "praxi_ml_snapshot_publishes_total",
            "Model snapshot epochs published")),
        epoch(obs::MetricsRegistry::global().gauge(
            "praxi_ml_snapshot_epoch",
            "Epoch counter of the most recently published snapshot")),
        stale_updates(obs::MetricsRegistry::global().gauge(
            "praxi_ml_snapshot_stale_updates",
            "SGD updates applied since the last snapshot publish")),
        retired_refs(obs::MetricsRegistry::global().gauge(
            "praxi_ml_snapshot_retired_refs",
            "Reader handles still pinning the epoch retired by the last "
            "publish")),
        full_copies(obs::MetricsRegistry::global().counter(
            "praxi_ml_snapshot_full_copies_total",
            "Snapshot publishes that copied the whole weight table")) {}
};

SnapshotInstruments& snapshot_instruments() {
  static SnapshotInstruments instruments;
  return instruments;
}

ml::Reduction reduction_of(LabelMode mode) {
  return mode == LabelMode::kSingleLabel ? ml::Reduction::kOaa
                                         : ml::Reduction::kCsoaa;
}

/// Both train() and learn_one() take labeled tagsets: exactly one label in
/// kSingleLabel mode, one or more in kMultiLabel mode.
void check_label_count(LabelMode mode, const columbus::TagSet& tagset) {
  if (mode == LabelMode::kSingleLabel && tagset.labels.size() != 1) {
    throw std::invalid_argument(
        "Praxi(kSingleLabel): tagset must carry exactly one label");
  }
  if (mode == LabelMode::kMultiLabel && tagset.labels.empty()) {
    throw std::invalid_argument(
        "Praxi(kMultiLabel): tagset must carry at least one label");
  }
}

}  // namespace

Praxi::Praxi(PraxiConfig config)
    : Praxi(config,
            ml::OnlineLearner(reduction_of(config.mode), config.learner),
            false) {}

Praxi::Praxi(PraxiConfig config, ml::OnlineLearner learner, bool trained)
    : config_(config),
      columbus_(std::make_shared<const columbus::Columbus>(config.columbus)),
      hasher_(config.learner.bits),
      learner_(std::move(learner)),
      trained_(trained) {
  if (config_.runtime.num_threads != 1) {
    pool_ = std::make_shared<ThreadPool>(config_.runtime.num_threads);
  }
  // snapshot() must never observe null: epoch 1 is the state at
  // construction (untrained unless restored). Predicting through an
  // untrained one throws the documented logic_error.
  publish_snapshot();
}

void Praxi::set_num_threads(std::size_t num_threads) {
  if (num_threads == config_.runtime.num_threads) return;
  config_.runtime.num_threads = num_threads;
  if (num_threads == 1) {
    pool_.reset();
  } else if (!pool_ ||
             pool_->size() != ThreadPool::resolve_threads(num_threads)) {
    pool_ = std::make_shared<ThreadPool>(num_threads);
  }
}

void Praxi::set_runtime(const common::RuntimeConfig& runtime) {
  set_num_threads(runtime.num_threads);
  config_.runtime.snapshot_publish_every = runtime.snapshot_publish_every;
}

columbus::TagSet Praxi::extract_tags(const fs::Changeset& changeset) const {
  // Explicitly route through the calling thread's reusable scratch: repeat
  // callers (the serving loop) pay zero pipeline allocations after their
  // first extraction on this thread.
  return columbus_->extract(changeset, columbus::tls_extraction_scratch());
}

std::vector<columbus::TagSet> Praxi::extract_tags(
    std::span<const fs::Changeset* const> changesets) const {
  return columbus_->extract(changesets, pool_.get());
}

ml::FeatureVector Praxi::features_of(const columbus::TagSet& tagset) const {
  return hash_tagset_features(hasher_, tagset);
}

ModelSnapshotPtr Praxi::publish_snapshot() {
  // Serializes concurrent publishers (rank kModelPublish). The freeze is
  // the copy-on-write half: the new epoch shares the immutable Columbus and
  // label space, and its weights are a buffer recycled from a dropped epoch
  // refreshed at the slots SGD wrote since (a whole-table copy only when no
  // such buffer is free), so readers of older epochs are untouched; the
  // swap holds the cell lock for a pointer swap only, so readers pinning
  // epochs never wait for the freeze.
  common::LockGuard lock(cell_.publish_mutex());
  Stopwatch timer;
  const std::uint64_t epoch = cell_.epoch() + 1;
  bool full_copy = false;
  auto snap = std::make_shared<const ModelSnapshot>(
      epoch, config_.mode, trained_, columbus_, hasher_,
      learner_.freeze(full_copy));
  const ModelSnapshotPtr retired = cell_.exchange(snap);
  updates_since_publish_ = 0;

  auto& instruments = snapshot_instruments();
  instruments.publish_seconds.observe(timer.elapsed_s());
  instruments.publishes.inc();
  if (full_copy) instruments.full_copies.inc();
  instruments.epoch.set(static_cast<double>(epoch));
  instruments.stale_updates.set(0.0);
  // use_count() counts our local handle too; readers = the rest. A stale
  // approximation by the time anyone reads it, like every refcount gauge.
  instruments.retired_refs.set(
      retired ? static_cast<double>(retired.use_count() - 1) : 0.0);

  // The learner maintains the occupancy gauges incrementally under
  // learn_one(); restore/rollover paths bypass that, so every publish
  // re-syncs them from the table's ground truth — the gauges can never
  // drift across an epoch swap (docs/OBSERVABILITY.md).
  learner_.sync_occupancy_gauges();
  return snap;
}

ModelSnapshotPtr Praxi::publish() { return publish_snapshot(); }

void Praxi::maybe_publish_after_update() {
  ++updates_since_publish_;
  const std::size_t every = config_.runtime.snapshot_publish_every;
  if (every != 0 && updates_since_publish_ >= every) {
    publish_snapshot();
  } else {
    snapshot_instruments().stale_updates.set(
        static_cast<double>(updates_since_publish_));
  }
}

void Praxi::train(const std::vector<columbus::TagSet>& tagsets) {
  obs::ScopedTimer train_timer(train_seconds());
  Stopwatch timer;
  std::vector<ml::Example> examples;
  examples.reserve(tagsets.size());
  for (const auto& ts : tagsets) {
    check_label_count(config_.mode, ts);
    examples.push_back(ml::Example{features_of(ts), ts.labels});
    overhead_.tagset_bytes += ts.size_bytes();
  }
  learner_.train(examples);
  overhead_.train_s += timer.elapsed_s();
  overhead_.model_bytes = model_bytes();
  trained_ = true;
  // A batch boundary always publishes: whatever the learn_one cadence says,
  // a completed train() must be visible to the next snapshot() caller.
  publish_snapshot();
}

void Praxi::train_changesets(const std::vector<const fs::Changeset*>& corpus) {
  // Tag extraction parallelizes (per-changeset independent, order
  // preserved); the SGD weight updates inside train() stay sequential so
  // the trained model is bit-identical at every thread count.
  Stopwatch timer;
  std::vector<columbus::TagSet> tagsets =
      extract_tags(std::span<const fs::Changeset* const>(corpus));
  overhead_.tag_extraction_s += timer.elapsed_s();
  train(tagsets);
}

void Praxi::learn_one(const columbus::TagSet& tagset) {
  check_label_count(config_.mode, tagset);
  learner_.learn_one(features_of(tagset), tagset.labels);
  overhead_.tagset_bytes += tagset.size_bytes();
  trained_ = true;
  maybe_publish_after_update();
}

void Praxi::reset() {
  learner_.reset();
  overhead_ = PraxiOverhead{};
  trained_ = false;
  // Readers must not keep serving the discarded model: retire it now.
  publish_snapshot();
}

namespace {

// Snapshot identity (see docs/PERSISTENCE.md).
constexpr std::uint32_t kPraxiMagic = 0x50525831U;  // "PRX1"
constexpr std::uint32_t kPraxiVersion = 1;

}  // namespace

std::string Praxi::to_binary() const {
  BinaryWriter w;
  w.put<std::uint8_t>(static_cast<std::uint8_t>(config_.mode));
  w.put<std::uint64_t>(config_.columbus.top_k);
  w.put<std::uint32_t>(config_.columbus.min_frequency);
  w.put<std::uint64_t>(config_.columbus.min_tag_length);
  w.put<std::uint32_t>(config_.learner.bits);
  w.put<std::uint8_t>(trained_ ? 1 : 0);
  w.put_string(learner_.to_binary());
  return seal_snapshot(kPraxiMagic, kPraxiVersion, w.bytes());
}

Praxi Praxi::from_binary(std::string_view bytes) {
  const Snapshot snap =
      open_snapshot(bytes, kPraxiMagic, kPraxiVersion, kPraxiVersion);
  BinaryReader r(snap.payload);
  PraxiConfig config;
  const auto mode_byte = r.get<std::uint8_t>();
  if (mode_byte > static_cast<std::uint8_t>(LabelMode::kMultiLabel)) {
    throw SerializeError("Praxi model: bad label mode byte " +
                         std::to_string(mode_byte));
  }
  config.mode = static_cast<LabelMode>(mode_byte);
  config.columbus.top_k = r.get<std::uint64_t>();
  config.columbus.min_frequency = r.get<std::uint32_t>();
  config.columbus.min_tag_length = r.get<std::uint64_t>();
  config.learner.bits = r.get<std::uint32_t>();
  if (config.learner.bits == 0 || config.learner.bits > 30) {
    throw SerializeError("Praxi model: learner bits out of range [1, 30]: " +
                         std::to_string(config.learner.bits));
  }
  const bool trained = r.get<std::uint8_t>() != 0;
  const std::string inner = r.get_string();
  r.require_end("Praxi model");

  // Parse (and fully validate) the inner learner, then build the model
  // around it: one weight table, published once as epoch 1. Opening it by
  // the mode's reduction rejects an inner blob of the other reduction; the
  // size check rejects a table whose bits disagree with the header, so
  // hasher and table agree.
  ml::OnlineLearner learner =
      ml::OnlineLearner::from_binary(inner, reduction_of(config.mode));
  if (learner.size_bytes() !=
      (std::size_t{1} << config.learner.bits) * sizeof(float)) {
    throw SerializeError(
        "Praxi model: classifier bits disagree with model header");
  }
  return Praxi(config, std::move(learner), trained);
}

}  // namespace praxi::core
