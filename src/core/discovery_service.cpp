#include "core/discovery_service.hpp"

#include <stdexcept>

namespace praxi::core {

DiscoveryService::DiscoveryService(fs::InMemoryFilesystem& filesystem,
                                   Praxi model, DiscoveryServiceConfig config)
    : filesystem_(filesystem),
      model_(std::move(model)),
      config_(config),
      recorder_(filesystem),
      last_sample_ms_(filesystem.clock()->now_ms()) {
  if (!model_.trained())
    throw std::invalid_argument("DiscoveryService: model must be trained");
  filesystem_.subscribe(this);
}

DiscoveryService::~DiscoveryService() { filesystem_.unsubscribe(this); }

void DiscoveryService::on_fs_event(const fs::FsEvent& event) {
  recent_events_.push_back(event.time_ms);
  const auto guard_ms =
      static_cast<std::int64_t>(config_.boundary_guard_s * 1e3);
  while (!recent_events_.empty() &&
         event.time_ms - recent_events_.front() > guard_ms) {
    recent_events_.pop_front();
  }
}

namespace {

/// "Counting local maxima in the number of filesystem changes over time"
/// (§V-B): bucket the record timeline into one-second bins, mark bins that
/// hold at least hot_bucket_records changes as installation-grade activity,
/// and count maximal hot runs (tolerating up to burst_gap_s of cold time
/// inside a run — compiles and unpack pauses). Sparse background noise
/// never heats a bucket, so it cannot bridge or fake a burst.
///
/// One pass over the time-ordered records: each run of records sharing a
/// bin is one bin visit, and the empty bins between two runs are visited
/// at once — the same count as a dense per-bin histogram, without one.
template <typename Records>
std::size_t count_bursts(const Records& records,
                         const DiscoveryServiceConfig& config) {
  if (records.empty()) return 0;

  const auto max_cold = static_cast<std::size_t>(config.burst_gap_s);
  std::size_t bursts = 0;
  std::size_t run_records = 0;  // records in the current hot run
  std::size_t cold_streak = 0;
  bool in_run = false;
  auto end_run = [&] {
    if (run_records >= config.burst_min_records) ++bursts;
    in_run = false;
    run_records = 0;
  };
  auto visit_bin = [&](std::size_t changes) {
    if (changes >= config.hot_bucket_records) {
      in_run = true;
      cold_streak = 0;
      run_records += changes;
    } else if (in_run && ++cold_streak > max_cold) {
      end_run();
    }
  };
  auto visit_empty_bins = [&](std::uint64_t bins) {
    if (bins == 0) return;
    if (config.hot_bucket_records == 0) {  // every bin is hot
      in_run = true;
      cold_streak = 0;
    } else if (in_run) {
      if (bins > max_cold - cold_streak) {
        end_run();
      } else {
        cold_streak += bins;
      }
    }
  };

  // Unsigned offsets: well defined for any int64 times, and equal to the
  // signed difference whenever the records are in time order.
  const auto t0 = static_cast<std::uint64_t>(records.front().time_ms);
  std::uint64_t bin = 0;
  std::size_t changes = 0;
  for (const auto& rec : records) {
    const std::uint64_t b =
        (static_cast<std::uint64_t>(rec.time_ms) - t0) / 1000;
    if (b != bin) {
      visit_bin(changes);
      visit_empty_bins(b > bin ? b - bin - 1 : 0);
      bin = b;
      changes = 0;
    }
    ++changes;
  }
  visit_bin(changes);
  if (in_run) end_run();
  return bursts;
}

}  // namespace

std::size_t DiscoveryService::infer_quantity(
    const fs::Changeset& changeset, const DiscoveryServiceConfig& config) {
  return count_bursts(changeset.records(), config);
}

std::size_t DiscoveryService::infer_quantity(
    const fs::ChangesetView& changeset, const DiscoveryServiceConfig& config) {
  return count_bursts(changeset.records, config);
}

DiscoveryEvent DiscoveryService::classify(fs::Changeset changeset) {
  DiscoveryEvent event;
  event.open_time_ms = changeset.open_time_ms();
  event.close_time_ms = changeset.close_time_ms();
  event.record_count = changeset.size();
  if (changeset.empty()) return event;

  event.inferred_quantity = infer_quantity(changeset, config_);
  if (event.inferred_quantity == 0) {
    // Background noise only: nothing install-shaped happened this interval.
    return event;
  }
  const std::size_t n = model_.mode() == LabelMode::kSingleLabel
                            ? 1
                            : event.inferred_quantity;
  // Pin one epoch for the whole report (docs/API.md). Extract once, predict
  // from the tagset — keeps a single tokenization pass even if this path
  // later also retains the tagset (§V-C).
  const ModelSnapshotPtr snap = model_.snapshot();
  event.applications = snap->predict_tags(snap->extract_tags(changeset), n);
  return event;
}

std::vector<DiscoveryEvent> DiscoveryService::poll() {
  std::vector<DiscoveryEvent> events;
  const std::int64_t now = filesystem_.clock()->now_ms();
  const auto interval_ms = static_cast<std::int64_t>(config_.interval_s * 1e3);
  if (now - last_sample_ms_ < interval_ms) return events;

  // Partial-changeset guard (§VI): dense change activity near the boundary
  // suggests an installation in flight; extend the window rather than split
  // its footprint across two changesets — up to max_window_extension_s.
  // A sparse background trickle must not hold the window open, so the guard
  // arms only on installation-grade density.
  const auto guard_ms =
      static_cast<std::int64_t>(config_.boundary_guard_s * 1e3);
  const auto max_extension_ms =
      static_cast<std::int64_t>(config_.max_window_extension_s * 1e3);
  std::size_t events_in_guard_window = 0;
  for (auto it = recent_events_.rbegin(); it != recent_events_.rend(); ++it) {
    if (now - *it >= guard_ms) break;
    ++events_in_guard_window;
  }
  const bool activity_in_flight =
      guard_ms > 0 && recorder_.pending_records() > 0 &&
      events_in_guard_window >= config_.hot_bucket_records;
  const bool can_extend = now - last_sample_ms_ < interval_ms + max_extension_ms;
  if (activity_in_flight && can_extend) return events;

  events.push_back(sample_now());
  return events;
}

DiscoveryEvent DiscoveryService::sample_now() {
  last_sample_ms_ = filesystem_.clock()->now_ms();
  return classify(recorder_.eject());
}

}  // namespace praxi::core
