// Observability: a dependency-free metrics registry for the discovery
// pipeline (docs/OBSERVABILITY.md).
//
// Praxi's pitch is operational — continuous discovery with sub-second
// inference and incremental retraining — so every pipeline stage reports
// what it is doing through a process-global MetricsRegistry: named Counter,
// Gauge, and fixed-bucket Histogram instruments, each optionally carrying a
// small label set (per-agent, per-stage, per-reduction breakdowns).
//
// Design rules:
//   * Lock-free fast path. Instruments are plain atomics; the registry's
//     mutex is taken only at registration time. Call sites cache the
//     returned reference (typically in a function-local static), so a hot
//     loop pays one relaxed atomic load (the enabled gate) plus one relaxed
//     RMW per event.
//   * Stable handles. Registered instruments are never deallocated or moved
//     for the registry's lifetime; references stay valid forever.
//   * Graceful degradation. set_enabled(false) turns every inc()/set()/
//     observe() into a no-op without invalidating handles — the one
//     process-wide switch, set by the host (bench/micro_metrics measures
//     its uninstrumented side with it).
//   * Naming convention: praxi_<component>_<name>_<unit>, enforced by
//     tools/praxi_lint.py (metric-naming rule). Counters end in _total;
//     histograms in _seconds, _bytes, or _count; gauges in a unit suffix
//     such as _depth or _slots.
//
// Exposition: render_prometheus() emits Prometheus text format 0.0.4,
// render_json() a stable JSON document — both deterministic (families and
// series in sorted order) so goldens can assert on them.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/annotations.hpp"
#include "common/sync.hpp"

namespace praxi::obs {

/// Label key/value pairs. Order-insensitive: the registry canonicalizes by
/// sorting on key at registration time.
using Labels = std::vector<std::pair<std::string, std::string>>;

enum class InstrumentKind : std::uint8_t { kCounter, kGauge, kHistogram };

/// Monotonically increasing event count.
class Counter {
 public:
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void inc(std::uint64_t n = 1) noexcept {
    if (enabled_->load(std::memory_order_relaxed)) {
      value_.fetch_add(n, std::memory_order_relaxed);
    }
  }
  std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  friend class MetricsRegistry;
  explicit Counter(const std::atomic<bool>* enabled) : enabled_(enabled) {}
  void clear() noexcept { value_.store(0, std::memory_order_relaxed); }

  std::atomic<std::uint64_t> value_{0};
  const std::atomic<bool>* enabled_;
};

/// Point-in-time value that can move both ways (queue depth, occupancy).
class Gauge {
 public:
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  void set(double v) noexcept {
    if (enabled_->load(std::memory_order_relaxed)) {
      value_.store(v, std::memory_order_relaxed);
    }
  }
  void add(double delta) noexcept {
    if (!enabled_->load(std::memory_order_relaxed)) return;
    // CAS loop instead of atomic<double>::fetch_add: identical semantics,
    // no reliance on the C++20 floating-point RMW overloads.
    double old = value_.load(std::memory_order_relaxed);
    while (!value_.compare_exchange_weak(old, old + delta,
                                         std::memory_order_relaxed)) {
    }
  }
  void sub(double delta) noexcept { add(-delta); }
  double value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  friend class MetricsRegistry;
  explicit Gauge(const std::atomic<bool>* enabled) : enabled_(enabled) {}
  void clear() noexcept { value_.store(0.0, std::memory_order_relaxed); }

  std::atomic<double> value_{0.0};
  const std::atomic<bool>* enabled_;
};

/// Fixed-bucket distribution, Prometheus-style: bucket i counts observations
/// v <= upper_bounds[i] (non-cumulative internally; exposition cumulates),
/// with an implicit +Inf bucket at the end.
class Histogram {
 public:
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  void observe(double v) noexcept {
    if (!enabled_->load(std::memory_order_relaxed)) return;
    std::size_t i = 0;
    while (i < upper_bounds_.size() && v > upper_bounds_[i]) ++i;
    buckets_[i].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    double old = sum_.load(std::memory_order_relaxed);
    while (!sum_.compare_exchange_weak(old, old + v,
                                       std::memory_order_relaxed)) {
    }
  }

  const std::vector<double>& upper_bounds() const { return upper_bounds_; }
  /// Non-cumulative count of bucket i; i == upper_bounds().size() is +Inf.
  std::uint64_t bucket_count(std::size_t i) const noexcept {
    return buckets_[i].load(std::memory_order_relaxed);
  }
  std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  double sum() const noexcept { return sum_.load(std::memory_order_relaxed); }

 private:
  friend class MetricsRegistry;
  Histogram(const std::atomic<bool>* enabled, std::vector<double> upper_bounds)
      : upper_bounds_(std::move(upper_bounds)),
        buckets_(upper_bounds_.size() + 1),
        enabled_(enabled) {}
  void clear() noexcept {
    for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
    count_.store(0, std::memory_order_relaxed);
    sum_.store(0.0, std::memory_order_relaxed);
  }

  std::vector<double> upper_bounds_;  ///< sorted ascending, no +Inf entry
  std::vector<std::atomic<std::uint64_t>> buckets_;  ///< size = bounds + 1
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  const std::atomic<bool>* enabled_;
};

/// Estimated q-quantile (0 <= q <= 1) of a histogram's distribution,
/// Prometheus-style: find the bucket where the cumulative count crosses
/// q * count, then interpolate linearly inside it. Observations in the
/// +Inf bucket clamp to the highest finite bound (the histogram cannot
/// resolve beyond its layout). Returns 0 when the histogram is empty.
/// Used by bench/load_cluster to report p50/p95/p99 settle latency from
/// praxi_cluster_settle_seconds (docs/CLUSTER.md).
double histogram_quantile(const Histogram& histogram, double q);

/// Default bucket layouts for the three distribution shapes the pipeline
/// reports. Log-spaced latency buckets cover 1µs..10s — tokenizing one
/// changeset sits near the bottom, a full cold train() near the top.
std::vector<double> latency_buckets();
/// Snapshot/transfer sizes, 256 B .. 16 MiB.
std::vector<double> size_buckets();
/// Small cardinalities (tags per changeset, labels per model), 1 .. 250.
std::vector<double> count_buckets();

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

/// Read-only copy of one instrument's state, taken under relaxed loads (a
/// concurrent writer may land between fields; fine for monitoring).
struct SeriesSnapshot {
  Labels labels;
  std::uint64_t counter_value = 0;
  double gauge_value = 0.0;
  // Histogram only:
  std::vector<std::uint64_t> bucket_counts;  ///< non-cumulative, +Inf last
  std::uint64_t count = 0;
  double sum = 0.0;
};

struct FamilySnapshot {
  std::string name;
  std::string help;
  InstrumentKind kind = InstrumentKind::kCounter;
  std::vector<double> upper_bounds;  ///< histograms only
  std::vector<SeriesSnapshot> series;
};

/// Instrument registry. One process-global instance backs the pipeline
/// (global()); tests construct private instances for isolation.
class MetricsRegistry {
 public:
  MetricsRegistry();
  ~MetricsRegistry();  // out of line: Family is an incomplete type here
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// The process-wide registry every pipeline stage reports into.
  static MetricsRegistry& global();

  /// Returns the instrument registered under (name, labels), creating it on
  /// first use. The reference is valid for the registry's lifetime. Throws
  /// std::logic_error if `name` is already registered as a different kind,
  /// or (histograms) with different buckets.
  Counter& counter(std::string_view name, std::string_view help,
                   const Labels& labels = {});
  Gauge& gauge(std::string_view name, std::string_view help,
               const Labels& labels = {});
  Histogram& histogram(std::string_view name, std::string_view help,
                       std::vector<double> upper_bounds,
                       const Labels& labels = {});

  /// Global on/off gate, checked on every instrument's fast path with one
  /// relaxed load. Disabling freezes values; it never invalidates handles.
  void set_enabled(bool on) noexcept {
    enabled_.store(on, std::memory_order_relaxed);
  }
  bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Convenience lookup for views/tests: the counter's value, or 0 when the
  /// series was never registered.
  std::uint64_t counter_value(std::string_view name,
                              const Labels& labels = {}) const;

  /// Deterministic snapshot: families sorted by name, series by label set.
  std::vector<FamilySnapshot> collect() const;

  /// Zeroes every registered instrument (handles stay valid). Test/bench
  /// hook — production code never resets.
  void reset_values();

 private:
  struct Series;
  struct Family;
  Family& family_for(std::string_view name, std::string_view help,
                     InstrumentKind kind, const std::vector<double>* bounds)
      PRAXI_REQUIRES(mutex_);
  Series& series_for(Family& family, const Labels& labels,
                     const std::vector<double>* bounds)
      PRAXI_REQUIRES(mutex_);

  mutable common::Mutex mutex_{"metrics_registry",
                               common::LockRank::kMetricsRegistry};
  std::map<std::string, std::unique_ptr<Family>, std::less<>> families_
      PRAXI_GUARDED_BY(mutex_);
  std::atomic<bool> enabled_{true};
};

// ---------------------------------------------------------------------------
// Exposition
// ---------------------------------------------------------------------------

/// Prometheus text exposition format 0.0.4: # HELP / # TYPE headers, one
/// line per series, histogram buckets cumulated with the trailing +Inf,
/// _sum, and _count series.
std::string render_prometheus(const MetricsRegistry& registry);

/// Stable JSON document: {"<family>": {"type", "help", "series": [...]}}.
std::string render_json(const MetricsRegistry& registry);

}  // namespace praxi::obs
