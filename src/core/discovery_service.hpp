// DiscoveryService: the continuous-monitoring daemon around Praxi,
// modelled on the DeltaSherlock service of Turk et al. (paper §II-C, §VI).
//
// The service attaches a recorder to a live filesystem, ejects the open
// changeset every `interval_s` of simulated time, and classifies it. When
// the application count is unknown, it is inferred by counting bursts
// (local maxima) in the number of filesystem changes over time — the
// quantity-prediction algorithm the paper references in §V-B/§VI.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "core/praxi.hpp"
#include "fs/recorder.hpp"

namespace praxi::core {

struct DiscoveryServiceConfig {
  double interval_s = 60.0;  ///< sampling interval
  /// Quantity inference (counting local maxima in change frequency over
  /// time, §V-B): one-second buckets of the record timeline are "hot" when
  /// they hold at least `hot_bucket_records` changes — installations write
  /// files densely, background noise trickles. Hot runs separated by no
  /// more than `burst_gap_s` of cold time form one burst (source builds
  /// pause for seconds mid-install); bursts with fewer than
  /// `burst_min_records` total records are noise spikes.
  double burst_gap_s = 8.0;
  std::size_t burst_min_records = 20;
  std::size_t hot_bucket_records = 5;
  /// Partial-changeset guard (paper §VI): when install-grade change activity
  /// (at least `hot_bucket_records` events within this many seconds) is
  /// still in flight at the sampling boundary, poll() postpones the eject so
  /// the installation is not split into two half-changesets, neither of
  /// which identifies the application. Background trickle does not arm the
  /// guard. Zero disables it.
  double boundary_guard_s = 10.0;
  /// Upper bound on how long a window may be extended by the guard before
  /// it is force-closed (protects against continuous-activity livelock).
  double max_window_extension_s = 120.0;
};

/// One discovery report for a closed observation interval.
struct DiscoveryEvent {
  std::int64_t open_time_ms = 0;
  std::int64_t close_time_ms = 0;
  std::size_t record_count = 0;
  std::size_t inferred_quantity = 0;
  std::vector<std::string> applications;
};

class DiscoveryService final : public fs::EventSink {
 public:
  /// `model` must be trained. The service owns a recorder on `filesystem`.
  DiscoveryService(fs::InMemoryFilesystem& filesystem, Praxi model,
                   DiscoveryServiceConfig config = {});
  ~DiscoveryService() override;

  DiscoveryService(const DiscoveryService&) = delete;
  DiscoveryService& operator=(const DiscoveryService&) = delete;

  /// EventSink: tracks when the most recent change arrived (boundary guard).
  void on_fs_event(const fs::FsEvent& event) override;

  /// Checks whether the sampling interval has elapsed; if so, ejects and
  /// classifies the open changeset. Call after advancing simulated time.
  /// Returns the reports produced (zero or one per call). When change
  /// activity is still in flight at the boundary (boundary_guard_s), the
  /// window is extended rather than split mid-installation.
  std::vector<DiscoveryEvent> poll();

  /// Forces an immediate eject + classify regardless of the interval.
  DiscoveryEvent sample_now();

  /// Counts installation-sized change bursts in a changeset — the
  /// quantity-prediction step. Exposed for tests and benches. Records must
  /// be in time order, as close() leaves them; the count is then exact.
  /// Out-of-order records (hostile input) give some count without UB and
  /// without allocating.
  static std::size_t infer_quantity(const fs::Changeset& changeset,
                                    const DiscoveryServiceConfig& config);
  /// The same screen over a decoded wire view (server ingest).
  static std::size_t infer_quantity(const fs::ChangesetView& changeset,
                                    const DiscoveryServiceConfig& config);

  const Praxi& model() const { return model_; }

 private:
  DiscoveryEvent classify(fs::Changeset changeset);

  fs::InMemoryFilesystem& filesystem_;
  Praxi model_;
  DiscoveryServiceConfig config_;
  fs::ChangesetRecorder recorder_;
  std::int64_t last_sample_ms_;
  /// Timestamps of recent events, trimmed to the guard window on arrival.
  std::deque<std::int64_t> recent_events_;
};


}  // namespace praxi::core
