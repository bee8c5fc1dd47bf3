// Tests for the observability subsystem (src/obs): registry semantics
// (kind/bucket conflicts, label canonicalization, the enabled gate),
// histogram bucket boundaries, exposition goldens (Prometheus text and
// JSON, byte-exact — the renderers are deterministic by design), a
// concurrency smoke test sized for TSan, and the DiscoveryServer
// integration (per-stage instruments advance during process(); ingest
// counts survive disabled metrics; per-server series stay independent of
// fleet size).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "eval/harness.hpp"
#include "obs/metrics.hpp"
#include "obs/scoped_timer.hpp"
#include "pkg/dataset.hpp"
#include "service/server.hpp"
#include "service/transport.hpp"

namespace praxi::obs {
namespace {

TEST(Counter, IncrementsAndReads) {
  MetricsRegistry registry;
  Counter& c = registry.counter("praxi_test_events_total", "Events");
  EXPECT_EQ(c.value(), 0u);
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42u);
}

TEST(Gauge, SetAddSub) {
  MetricsRegistry registry;
  Gauge& g = registry.gauge("praxi_test_queue_depth", "Depth");
  g.set(10.0);
  g.add(2.5);
  g.sub(0.5);
  EXPECT_DOUBLE_EQ(g.value(), 12.0);
}

TEST(Histogram, BucketBoundariesAreInclusive) {
  MetricsRegistry registry;
  Histogram& h = registry.histogram("praxi_test_latency_seconds", "Latency",
                                    {1.0, 2.0, 5.0});
  // A value exactly on a bound lands in that bound's bucket (v <= bound,
  // matching Prometheus `le` semantics).
  h.observe(1.0);
  h.observe(1.0000001);
  h.observe(5.0);
  h.observe(6.0);  // above every bound -> +Inf
  EXPECT_EQ(h.bucket_count(0), 1u);  // le=1
  EXPECT_EQ(h.bucket_count(1), 1u);  // le=2
  EXPECT_EQ(h.bucket_count(2), 1u);  // le=5
  EXPECT_EQ(h.bucket_count(3), 1u);  // +Inf
  EXPECT_EQ(h.count(), 4u);
  EXPECT_NEAR(h.sum(), 13.0000001, 1e-6);
}

TEST(Histogram, DefaultBucketLayoutsAscend) {
  for (const auto& buckets :
       {latency_buckets(), size_buckets(), count_buckets()}) {
    ASSERT_FALSE(buckets.empty());
    for (std::size_t i = 1; i < buckets.size(); ++i) {
      EXPECT_LT(buckets[i - 1], buckets[i]);
    }
  }
}

TEST(MetricsRegistry, SameNameAndLabelsReturnsSameInstrument) {
  MetricsRegistry registry;
  Counter& a = registry.counter("praxi_test_events_total", "Events",
                                {{"stage", "x"}, {"agent", "a"}});
  // Labels are canonicalized by sorting on key, so order must not matter.
  Counter& b = registry.counter("praxi_test_events_total", "Events",
                                {{"agent", "a"}, {"stage", "x"}});
  EXPECT_EQ(&a, &b);
  Counter& other = registry.counter("praxi_test_events_total", "Events",
                                    {{"agent", "b"}, {"stage", "x"}});
  EXPECT_NE(&a, &other);
}

TEST(MetricsRegistry, KindConflictsThrow) {
  MetricsRegistry registry;
  registry.counter("praxi_test_events_total", "Events");
  EXPECT_THROW(registry.gauge("praxi_test_events_total", "Events"),
               std::logic_error);
  registry.histogram("praxi_test_latency_seconds", "Latency", {1.0, 2.0});
  EXPECT_THROW(
      registry.histogram("praxi_test_latency_seconds", "Latency", {1.0, 3.0}),
      std::logic_error);
  EXPECT_THROW(
      registry.histogram("praxi_test_backwards_seconds", "Bad", {2.0, 1.0}),
      std::logic_error);
}

TEST(MetricsRegistry, EnabledGateFreezesValuesWithoutInvalidatingHandles) {
  MetricsRegistry registry;
  Counter& c = registry.counter("praxi_test_events_total", "Events");
  Gauge& g = registry.gauge("praxi_test_queue_depth", "Depth");
  Histogram& h =
      registry.histogram("praxi_test_latency_seconds", "Latency", {1.0});
  c.inc();
  g.set(5.0);
  h.observe(0.5);

  registry.set_enabled(false);
  EXPECT_FALSE(registry.enabled());
  c.inc(100);
  g.set(99.0);
  g.add(1.0);
  h.observe(0.5);
  EXPECT_EQ(c.value(), 1u);
  EXPECT_DOUBLE_EQ(g.value(), 5.0);
  EXPECT_EQ(h.count(), 1u);

  registry.set_enabled(true);
  c.inc();
  EXPECT_EQ(c.value(), 2u);
}

TEST(MetricsRegistry, ResetValuesZeroesButKeepsHandles) {
  MetricsRegistry registry;
  Counter& c = registry.counter("praxi_test_events_total", "Events");
  Histogram& h =
      registry.histogram("praxi_test_latency_seconds", "Latency", {1.0});
  c.inc(7);
  h.observe(0.5);
  registry.reset_values();
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.0);
  c.inc();
  EXPECT_EQ(c.value(), 1u);
  EXPECT_EQ(registry.counter_value("praxi_test_events_total"), 1u);
}

TEST(MetricsRegistry, CounterValueLookup) {
  MetricsRegistry registry;
  EXPECT_EQ(registry.counter_value("praxi_test_missing_total"), 0u);
  Counter& c = registry.counter("praxi_test_events_total", "Events",
                                {{"outcome", "ok"}});
  c.inc(3);
  EXPECT_EQ(registry.counter_value("praxi_test_events_total",
                                   {{"outcome", "ok"}}),
            3u);
  EXPECT_EQ(registry.counter_value("praxi_test_events_total",
                                   {{"outcome", "bad"}}),
            0u);
}

TEST(ScopedTimer, FeedsHistogramOnceAndStopIsIdempotent) {
  MetricsRegistry registry;
  Histogram& h =
      registry.histogram("praxi_test_span_seconds", "Span", {1e9});
  {
    ScopedTimer timer(h);
    const double first = timer.stop();
    EXPECT_GE(first, 0.0);
    timer.stop();  // second stop must not observe again
  }                // neither must the destructor
  EXPECT_EQ(h.count(), 1u);
}

// ---------------------------------------------------------------------------
// Exposition goldens — byte-exact against a registry with known contents.
// ---------------------------------------------------------------------------

/// Registry fixture with one instrument of each kind and values chosen to
/// format without floating-point noise.
void fill_golden(MetricsRegistry& registry) {
  registry.counter("praxi_test_events_total", "Events", {{"stage", "a"}})
      .inc(3);
  registry.gauge("praxi_test_queue_depth", "Depth").set(2.5);
  Histogram& h = registry.histogram("praxi_test_latency_seconds", "Latency",
                                    {1.0, 2.0, 5.0});
  h.observe(0.5);
  h.observe(1.5);
  h.observe(10.0);
}

TEST(RenderPrometheus, Golden) {
  MetricsRegistry registry;
  fill_golden(registry);
  const std::string expected =
      "# HELP praxi_test_events_total Events\n"
      "# TYPE praxi_test_events_total counter\n"
      "praxi_test_events_total{stage=\"a\"} 3\n"
      "# HELP praxi_test_latency_seconds Latency\n"
      "# TYPE praxi_test_latency_seconds histogram\n"
      "praxi_test_latency_seconds_bucket{le=\"1\"} 1\n"
      "praxi_test_latency_seconds_bucket{le=\"2\"} 2\n"
      "praxi_test_latency_seconds_bucket{le=\"5\"} 2\n"
      "praxi_test_latency_seconds_bucket{le=\"+Inf\"} 3\n"
      "praxi_test_latency_seconds_sum 12\n"
      "praxi_test_latency_seconds_count 3\n"
      "# HELP praxi_test_queue_depth Depth\n"
      "# TYPE praxi_test_queue_depth gauge\n"
      "praxi_test_queue_depth 2.5\n";
  EXPECT_EQ(render_prometheus(registry), expected);
}

TEST(RenderPrometheus, EscapesLabelValues) {
  MetricsRegistry registry;
  registry.counter("praxi_test_events_total", "Events",
                   {{"agent", "a\"b\\c\nd"}})
      .inc();
  const std::string out = render_prometheus(registry);
  EXPECT_NE(out.find("agent=\"a\\\"b\\\\c\\nd\""), std::string::npos) << out;
}

TEST(RenderJson, Golden) {
  MetricsRegistry registry;
  fill_golden(registry);
  const std::string expected =
      "{\n"
      "  \"praxi_test_events_total\": {\"type\": \"counter\", \"help\": "
      "\"Events\", \"series\": [\n"
      "    {\"labels\": {\"stage\": \"a\"}, \"value\": 3}\n"
      "  ]},\n"
      "  \"praxi_test_latency_seconds\": {\"type\": \"histogram\", \"help\": "
      "\"Latency\", \"series\": [\n"
      "    {\"labels\": {}, \"count\": 3, \"sum\": 12, \"buckets\": "
      "{\"1\": 1, \"2\": 2, \"5\": 2, \"+Inf\": 3}}\n"
      "  ]},\n"
      "  \"praxi_test_queue_depth\": {\"type\": \"gauge\", \"help\": "
      "\"Depth\", \"series\": [\n"
      "    {\"labels\": {}, \"value\": 2.5}\n"
      "  ]}\n"
      "}\n";
  EXPECT_EQ(render_json(registry), expected);
}

TEST(RenderJson, EmptyRegistry) {
  MetricsRegistry registry;
  EXPECT_EQ(render_json(registry), "{}\n");
  EXPECT_EQ(render_prometheus(registry), "");
}

// ---------------------------------------------------------------------------
// Concurrency smoke test — sized so TSan (tools/check.sh --tsan) gets
// real interleavings; with atomics-only fast paths the final values must
// still be exact.
// ---------------------------------------------------------------------------

TEST(MetricsRegistry, ConcurrentUpdatesAndCollects) {
  MetricsRegistry registry;
  constexpr int kThreads = 4;
  constexpr int kIters = 10000;
  Counter& c = registry.counter("praxi_test_events_total", "Events");
  Gauge& g = registry.gauge("praxi_test_queue_depth", "Depth");
  Histogram& h = registry.histogram("praxi_test_latency_seconds", "Latency",
                                    {0.25, 0.5, 1.0});

  std::vector<std::thread> workers;
  workers.reserve(kThreads + 1);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (int i = 0; i < kIters; ++i) {
        c.inc();
        g.add(1.0);
        g.sub(1.0);
        h.observe(double(t % 4) * 0.25);
        // Registration from multiple threads must also be safe and
        // always return the same handle.
        Counter& mine = registry.counter("praxi_test_races_total", "Races",
                                         {{"thread", std::to_string(t)}});
        mine.inc();
      }
    });
  }
  // A reader snapshotting concurrently with the writers.
  workers.emplace_back([&] {
    for (int i = 0; i < 100; ++i) {
      const auto families = registry.collect();
      (void)families;
      (void)render_prometheus(registry);
    }
  });
  for (auto& w : workers) w.join();

  EXPECT_EQ(c.value(), std::uint64_t(kThreads) * kIters);
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
  EXPECT_EQ(h.count(), std::uint64_t(kThreads) * kIters);
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(registry.counter_value("praxi_test_races_total",
                                     {{"thread", std::to_string(t)}}),
              std::uint64_t(kIters));
  }
}

// ---------------------------------------------------------------------------
// Pipeline integration: the global registry's stage instruments advance
// while a DiscoveryServer processes reports.
// ---------------------------------------------------------------------------

class ObsIntegrationTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    const auto catalog = pkg::Catalog::subset(42, 8, 0);
    pkg::DatasetBuilder builder(catalog, 7);
    pkg::CollectOptions options;
    options.samples_per_app = 4;
    dataset_ = new pkg::Dataset(builder.collect_dirty(options));
    model_ = new core::Praxi();
    model_->train_changesets(eval::pointers(*dataset_));
  }

  static void TearDownTestSuite() {
    delete dataset_;
    delete model_;
  }

  static pkg::Dataset* dataset_;
  static core::Praxi* model_;
};

pkg::Dataset* ObsIntegrationTest::dataset_ = nullptr;
core::Praxi* ObsIntegrationTest::model_ = nullptr;

/// Count of one histogram series in the global registry, 0 if absent.
std::uint64_t histogram_count(const std::string& name, const Labels& labels) {
  Labels sorted = labels;
  std::sort(sorted.begin(), sorted.end());
  for (const auto& family : MetricsRegistry::global().collect()) {
    if (family.name != name) continue;
    for (const auto& series : family.series) {
      if (series.labels == sorted) return series.count;
    }
  }
  return 0;
}

TEST_F(ObsIntegrationTest, ServerProcessAdvancesStageInstruments) {
  service::DiscoveryServer server(*model_);
  const Labels by_server{{"server", server.server_label()}};

  const auto columbus_before = MetricsRegistry::global().counter_value(
      "praxi_columbus_extractions_total");
  EXPECT_EQ(histogram_count("praxi_server_process_seconds", by_server), 0u);

  service::MessageBus bus;
  for (std::size_t i = 0; i < 3; ++i) {
    service::ChangesetReport report;
    report.agent_id = "vm-obs";
    report.sequence = i;
    report.changeset = dataset_->changesets.at(i);
    bus.send(report.to_wire());
  }
  bus.send("definitely not a frame");
  server.process(bus);

  EXPECT_EQ(histogram_count("praxi_server_process_seconds", by_server), 1u);
  EXPECT_GT(MetricsRegistry::global().counter_value(
                "praxi_columbus_extractions_total"),
            columbus_before);
  EXPECT_EQ(MetricsRegistry::global().counter_value(
                "praxi_server_reports_total",
                {{"server", server.server_label()}, {"outcome", "processed"}}),
            3u);
  EXPECT_EQ(MetricsRegistry::global().counter_value(
                "praxi_server_reports_total",
                {{"server", server.server_label()}, {"outcome", "malformed"}}),
            1u);
  // The registry's per-server series agree with the server's own totals.
  EXPECT_EQ(server.processed(), 3u);
  EXPECT_EQ(server.totals().malformed, 1u);
  const auto stats = server.ingest_stats();
  ASSERT_EQ(stats.count("vm-obs"), 1u);
  EXPECT_EQ(stats.at("vm-obs").processed, 3u);
}

TEST_F(ObsIntegrationTest, SnapshotPublishResyncsOccupancyGauges) {
  // The learner maintains praxi_ml_used_weight_slots incrementally; a
  // snapshot publish must re-sync it from the weight table so the gauge
  // cannot drift across epoch swaps. Poison the gauge, publish, and it must
  // come back to the same model-determined value every time.
  Gauge& used = MetricsRegistry::global().gauge(
      "praxi_ml_used_weight_slots", "Nonzero weight-table slots",
      {{"reduction", "oaa"}});
  used.set(-1.0);

  // from_binary ends with a publish (docs/API.md), which re-syncs.
  core::Praxi restored = core::Praxi::from_binary(model_->to_binary());
  const double synced = used.value();
  EXPECT_GT(synced, 0.0) << "publish must overwrite the poisoned gauge";

  used.set(1e9);  // drift again, no model change in between
  restored.publish();
  EXPECT_DOUBLE_EQ(used.value(), synced)
      << "publish must re-derive the gauge from the weight table";
}

TEST_F(ObsIntegrationTest, MlAndEngineInstrumentsCarryData) {
  // The fixture already trained and the test above predicted, so the
  // learner/engine families must exist with nonzero activity.
  EXPECT_GT(MetricsRegistry::global().counter_value("praxi_ml_updates_total",
                                                    {{"reduction", "oaa"}}),
            0u);
  bool found_train = false;
  for (const auto& family : MetricsRegistry::global().collect()) {
    if (family.name == "praxi_engine_train_seconds") {
      ASSERT_FALSE(family.series.empty());
      EXPECT_GT(family.series.front().count, 0u);
      found_train = true;
    }
  }
  EXPECT_TRUE(found_train);
}

/// Restores the global registry's enabled gate on scope exit, so a failing
/// assertion cannot leave later tests with metrics switched off.
class RegistryGateGuard {
 public:
  RegistryGateGuard() : was_enabled_(MetricsRegistry::global().enabled()) {}
  ~RegistryGateGuard() { MetricsRegistry::global().set_enabled(was_enabled_); }
  RegistryGateGuard(const RegistryGateGuard&) = delete;
  RegistryGateGuard& operator=(const RegistryGateGuard&) = delete;

 private:
  bool was_enabled_;
};

TEST_F(ObsIntegrationTest, ServerCountsIngestWithMetricsDisabled) {
  // Ingest outcomes are server state, not telemetry: switching metrics off
  // freezes the registry but must not stop processed()/totals(), which
  // `praxi-cli serve --max-reports` and the load generators loop on.
  const RegistryGateGuard gate;
  MetricsRegistry::global().set_enabled(false);
  service::DiscoveryServer server(*model_);
  ASSERT_FALSE(MetricsRegistry::global().enabled());

  service::MessageBus bus;
  std::vector<std::string> wires;
  for (std::size_t i = 0; i < 3; ++i) {
    service::ChangesetReport report;
    report.agent_id = "vm-quiet";
    report.sequence = i;
    report.changeset = dataset_->changesets.at(i);
    wires.push_back(report.to_wire());
    bus.send(wires.back());
  }
  bus.send(wires.front());  // redelivery
  bus.send("not a frame");
  server.process(bus);

  const service::AgentIngestStats totals = server.totals();
  EXPECT_EQ(totals.processed, 3u);
  EXPECT_EQ(totals.duplicate, 1u);
  EXPECT_EQ(totals.malformed, 1u);
  EXPECT_EQ(server.processed(), 3u);
  EXPECT_EQ(server.duplicates(), 1u);

  const auto stats = server.ingest_stats();
  ASSERT_EQ(stats.count("vm-quiet"), 1u);
  EXPECT_EQ(stats.at("vm-quiet").processed, 3u);
  EXPECT_EQ(stats.at("vm-quiet").duplicate, 1u);
  ASSERT_EQ(stats.count(service::DiscoveryServer::kUnattributedAgent), 1u);
  EXPECT_EQ(stats.at(service::DiscoveryServer::kUnattributedAgent).malformed,
            1u);

  // The registry itself stayed frozen.
  EXPECT_EQ(MetricsRegistry::global().counter_value(
                "praxi_server_reports_total",
                {{"server", server.server_label()}, {"outcome", "processed"}}),
            0u);
}

TEST_F(ObsIntegrationTest, ServerConstructionLeavesADisabledRegistryDisabled) {
  // The metrics gate belongs to the host: building a server (and with it
  // its model's runtime config) must not switch a disabled registry back
  // on.
  const RegistryGateGuard gate;
  MetricsRegistry::global().set_enabled(false);
  service::ServerConfig config;
  config.runtime.num_threads = 2;
  const service::DiscoveryServer server(*model_, config);
  EXPECT_FALSE(MetricsRegistry::global().enabled());
}

/// Registry series carrying this server's label across every
/// praxi_server_* family.
std::size_t server_series(const std::string& server_label) {
  std::size_t count = 0;
  for (const auto& family : MetricsRegistry::global().collect()) {
    if (family.name.rfind("praxi_server_", 0) != 0) continue;
    for (const auto& series : family.series) {
      for (const auto& [key, value] : series.labels) {
        if (key == "server" && value == server_label) ++count;
      }
    }
  }
  return count;
}

TEST_F(ObsIntegrationTest, ServerSeriesDoNotGrowWithFleetSize) {
  // Per-agent outcomes live in the server (ingest_stats()); the registry
  // carries only per-server series, so a large fleet cannot blow up the
  // scrape.
  service::DiscoveryServer server(*model_);
  service::MessageBus bus;
  const auto send_from = [&bus](std::size_t agent) {
    service::ChangesetReport report;
    report.agent_id = "vm-" + std::to_string(agent);
    report.sequence = 0;
    bus.send(report.to_wire());  // empty window: counted, not classified
  };

  send_from(0);
  server.process(bus);
  const std::size_t one_agent = server_series(server.server_label());
  EXPECT_GT(one_agent, 0u);

  for (std::size_t agent = 1; agent < 1000; ++agent) send_from(agent);
  server.process(bus);
  EXPECT_EQ(server.processed(), 1000u);
  EXPECT_EQ(server.ingest_stats().size(), 1000u);
  EXPECT_EQ(server_series(server.server_label()), one_agent);
}

}  // namespace
}  // namespace praxi::obs
