// Exact order statistics and open-loop accounting for the benchmark.
//
// Every latency the benchmark reports is computed here from its own
// per-sample arrays — never from the service's histograms, whose
// one-bucket-per-decade layout cannot resolve a percentile (a run whose
// whole wall time was 0.25 s reads p99 = 0.98 s through them).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

/// Nearest-rank quantile of an ascending-sorted sample: the smallest value
/// with at least `q` of the samples at or below it. `q` in [0, 1]. Returns
/// 0 for an empty sample.
double exact_quantile(const std::vector<double>& sorted, double q);

/// Samples strictly beyond the nearest-rank `percentile` (in percent) of
/// `count` samples.
std::size_t samples_beyond(std::size_t count, double percentile);

/// The highest percentile, among `wanted` and the fallbacks 99, 95, 90,
/// 75 and 50 at or below it, that leaves at least `min_beyond` samples
/// beyond it. A tail percentile backed by fewer samples than that is one
/// or two outliers and does not repeat. Returns 0 when even the median
/// has too few samples beyond it.
double reportable_percentile(std::size_t count, double wanted = 99.0,
                             std::size_t min_beyond = 10);

struct Summary {
  std::size_t count = 0;
  double mean = 0.0;
  double p50 = 0.0;
  /// Value at `tail_percentile` (see reportable_percentile).
  double tail = 0.0;
  double tail_percentile = 0.0;
  double max = 0.0;
};

/// Sorts `samples` and summarizes them; the tail is the highest
/// reportable percentile at or below `wanted_tail`.
Summary summarize(std::vector<double> samples, double wanted_tail = 99.0);

/// Median of a small sample (the repeated set-ups of one run).
double median(std::vector<double> samples);

/// A latency measured as several independent slices of one run (seconds of
/// an open loop, passes of a closed loop): each slice is summarized on its
/// own and the medians across slices are reported, so one transient stall
/// moves one slice, not the run's figure.
struct SlicedSummary {
  std::size_t slices = 0;
  std::size_t count = 0;          ///< samples over all slices
  double p50 = 0.0;               ///< median of the slices' medians
  double tail = 0.0;              ///< median of the slices' tails
  double tail_percentile = 0.0;   ///< lowest tail percentile any slice used
};

/// Summarizes each non-empty slice (see summarize) and takes medians.
SlicedSummary summarize_slices(const std::vector<std::vector<double>>& slices,
                               double wanted_tail = 99.0);

/// Cuts `samples` into consecutive slices of `size` (feedback calls by the
/// second of their schedule). A remainder shorter than `size` joins the last slice rather
/// than forming one too small for a tail percentile, so fewer than `size`
/// samples make a single slice. No samples, or `size` 0, make none.
std::vector<std::vector<double>> chunks(const std::vector<double>& samples,
                                        std::size_t size);

/// Open-loop send schedule: the i-th report is due at start + offset[i],
/// whether or not earlier sends were on time. Latency is charged from the
/// due time, so a generator or service stall is paid by every report
/// scheduled behind it, not hidden by a late send.
class OpenLoopAccount {
 public:
  /// `due_s[i]`: offset of report i from the phase start, in seconds,
  /// non-decreasing.
  explicit OpenLoopAccount(std::vector<double> due_s);

  std::size_t size() const { return due_s_.size(); }
  double due(std::size_t i) const { return due_s_[i]; }

  /// Records the actual send offset of report i. Returns its lateness
  /// (0 when sent on time or early).
  double record_send(std::size_t i, double sent_s);
  /// Records the settle offset of report i.
  void record_settle(std::size_t i, double settled_s);

  bool sent(std::size_t i) const { return sent_s_[i] >= 0.0; }
  bool settled(std::size_t i) const { return settled_s_[i] >= 0.0; }

  /// Lateness (send - due, clamped at 0) of every sent report, in seconds.
  std::vector<double> lateness() const;
  /// Due-to-settle latency of every settled report, in seconds.
  std::vector<double> latency_from_due() const;
  /// The same latencies, cut into slices by due time: slice k holds the
  /// reports due in [k * slice_s, (k + 1) * slice_s).
  std::vector<std::vector<double>> latency_slices(double slice_s) const;

 private:
  std::vector<double> due_s_;
  std::vector<double> sent_s_;
  std::vector<double> settled_s_;
};

/// Micro-F1 accumulator over label sets (labels as small integers).
class MicroF1 {
 public:
  void add(const std::vector<std::uint32_t>& predicted,
           const std::vector<std::uint32_t>& truth);
  /// 2TP / (2TP + FP + FN); 1 when nothing was predicted or expected.
  double value() const;
  std::uint64_t true_positives() const { return tp_; }

 private:
  std::uint64_t tp_ = 0;
  std::uint64_t fp_ = 0;
  std::uint64_t fn_ = 0;
};

}  // namespace perfbench
