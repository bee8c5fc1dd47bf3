// Tests for the continuous DiscoveryService (core/discovery_service.hpp):
// interval sampling and burst-based application-count inference (§V-B, §VI).
#include "core/discovery_service.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <vector>

#include "common/rng.hpp"

#include "pkg/dataset.hpp"
#include "pkg/installer.hpp"

namespace praxi::core {
namespace {

/// A trained single-label model over a small catalog, shared by the tests.
class DiscoveryServiceTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    catalog_ = new pkg::Catalog(pkg::Catalog::subset(42, 8, 0));
    pkg::DatasetBuilder builder(*catalog_, 7);
    pkg::CollectOptions options;
    options.samples_per_app = 5;
    const auto dataset = builder.collect_dirty(options);
    model_ = new Praxi();
    std::vector<const fs::Changeset*> train;
    for (const auto& cs : dataset.changesets) train.push_back(&cs);
    model_->train_changesets(train);
  }

  static void TearDownTestSuite() {
    delete catalog_;
    delete model_;
  }

  static pkg::Catalog* catalog_;
  static Praxi* model_;
};

pkg::Catalog* DiscoveryServiceTest::catalog_ = nullptr;
Praxi* DiscoveryServiceTest::model_ = nullptr;

TEST_F(DiscoveryServiceTest, RequiresTrainedModel) {
  auto clock = fs::make_clock();
  fs::InMemoryFilesystem filesystem(clock);
  EXPECT_THROW(DiscoveryService(filesystem, Praxi{}, {}),
               std::invalid_argument);
}

TEST_F(DiscoveryServiceTest, PollRespectsInterval) {
  auto clock = fs::make_clock();
  fs::InMemoryFilesystem filesystem(clock);
  pkg::provision_base_image(filesystem);
  DiscoveryServiceConfig config;
  config.interval_s = 60.0;
  DiscoveryService service(filesystem, *model_, config);

  clock->advance_s(30.0);
  EXPECT_TRUE(service.poll().empty());  // interval not yet elapsed
  clock->advance_s(31.0);
  const auto events = service.poll();
  ASSERT_EQ(events.size(), 1u);
  // Quiet interval: nothing recorded, nothing discovered.
  EXPECT_EQ(events[0].record_count, 0u);
  EXPECT_TRUE(events[0].applications.empty());
}

TEST_F(DiscoveryServiceTest, DetectsInstallationInInterval) {
  auto clock = fs::make_clock();
  fs::InMemoryFilesystem filesystem(clock);
  pkg::provision_base_image(filesystem);
  pkg::Installer installer(filesystem, *catalog_, Rng(31));
  DiscoveryService service(filesystem, *model_, {});

  const std::string target = catalog_->repository_names()[2];
  installer.install(target);
  const DiscoveryEvent event = service.sample_now();
  EXPECT_GT(event.record_count, 0u);
  ASSERT_EQ(event.applications.size(), 1u);
  EXPECT_EQ(event.applications.front(), target);
}

TEST_F(DiscoveryServiceTest, SampleNowResetsWindow) {
  auto clock = fs::make_clock();
  fs::InMemoryFilesystem filesystem(clock);
  pkg::provision_base_image(filesystem);
  pkg::Installer installer(filesystem, *catalog_, Rng(33));
  DiscoveryService service(filesystem, *model_, {});

  installer.install(catalog_->repository_names()[0]);
  (void)service.sample_now();
  // Second sample sees only what happened after the first.
  const DiscoveryEvent quiet = service.sample_now();
  EXPECT_EQ(quiet.record_count, 0u);
}

TEST(InferQuantity, CountsWellSeparatedBursts) {
  DiscoveryServiceConfig config;
  config.burst_gap_s = 5.0;
  config.burst_min_records = 3;

  fs::Changeset cs;
  auto burst = [&cs](std::int64_t start_ms, int n) {
    for (int i = 0; i < n; ++i) {
      cs.add(fs::ChangeRecord{"/f" + std::to_string(start_ms + i), 0644,
                              fs::ChangeKind::kCreate, start_ms + i * 100});
    }
  };
  burst(0, 10);        // burst 1
  burst(60'000, 8);    // burst 2 (60s later)
  burst(120'000, 12);  // burst 3
  cs.close(130'000);
  EXPECT_EQ(DiscoveryService::infer_quantity(cs, config), 3u);
}

TEST(InferQuantity, SmallBurstsIgnoredAsNoise) {
  DiscoveryServiceConfig config;
  config.burst_gap_s = 5.0;
  config.burst_min_records = 5;

  fs::Changeset cs;
  for (int i = 0; i < 10; ++i) {
    cs.add(fs::ChangeRecord{"/big" + std::to_string(i), 0644,
                            fs::ChangeKind::kCreate, i * 100});
  }
  // Two isolated single-file touches: below burst_min_records.
  cs.add(fs::ChangeRecord{"/noise1", 0644, fs::ChangeKind::kModify, 60'000});
  cs.add(fs::ChangeRecord{"/noise2", 0644, fs::ChangeKind::kModify, 120'000});
  cs.close(130'000);
  EXPECT_EQ(DiscoveryService::infer_quantity(cs, config), 1u);
}

TEST_F(DiscoveryServiceTest, BoundaryGuardExtendsWindowDuringActivity) {
  auto clock = fs::make_clock();
  fs::InMemoryFilesystem filesystem(clock);
  pkg::provision_base_image(filesystem);
  DiscoveryServiceConfig config;
  config.interval_s = 60.0;
  config.boundary_guard_s = 10.0;
  config.max_window_extension_s = 120.0;
  DiscoveryService service(filesystem, *model_, config);

  // Install-grade activity right at the boundary (dense burst of files):
  // poll() must hold the window rather than split the installation.
  clock->advance_s(59.0);
  for (int i = 0; i < 8; ++i) {
    filesystem.create_file("/opt/inflight/part" + std::to_string(i));
  }
  clock->advance_s(2.0);  // past the interval; burst was 2s ago (<10s)
  EXPECT_TRUE(service.poll().empty());

  for (int i = 8; i < 16; ++i) {
    filesystem.create_file("/opt/inflight/part" + std::to_string(i));
  }
  clock->advance_s(11.0);  // quiet for > guard: now it closes
  const auto events = service.poll();
  ASSERT_EQ(events.size(), 1u);
  // Both halves of the in-flight activity are in ONE changeset.
  EXPECT_GE(events[0].record_count, 17u);  // dirs + 16 files
}

TEST_F(DiscoveryServiceTest, BoundaryGuardGivesUpAfterMaxExtension) {
  auto clock = fs::make_clock();
  fs::InMemoryFilesystem filesystem(clock);
  pkg::provision_base_image(filesystem);
  DiscoveryServiceConfig config;
  config.interval_s = 30.0;
  config.boundary_guard_s = 10.0;
  config.max_window_extension_s = 20.0;
  DiscoveryService service(filesystem, *model_, config);

  // Continuous DENSE activity: an install-sized burst every 5s forever.
  bool closed = false;
  int iterations = 0;
  for (int i = 0; i < 30 && !closed; ++i, ++iterations) {
    clock->advance_s(5.0);
    for (int j = 0; j < 8; ++j) {
      filesystem.create_file("/busy/batch" + std::to_string(i) + "/file" +
                             std::to_string(j));
    }
    closed = !service.poll().empty();
  }
  EXPECT_TRUE(closed) << "guard must not extend the window indefinitely";
  // ... and it must actually have extended past the base interval first.
  EXPECT_GT(iterations, 30 / 5);
}

TEST_F(DiscoveryServiceTest, GuardDisabledClosesOnSchedule) {
  auto clock = fs::make_clock();
  fs::InMemoryFilesystem filesystem(clock);
  pkg::provision_base_image(filesystem);
  DiscoveryServiceConfig config;
  config.interval_s = 60.0;
  config.boundary_guard_s = 0.0;  // disabled
  DiscoveryService service(filesystem, *model_, config);

  clock->advance_s(59.0);
  filesystem.create_file("/opt/inflight/part1");
  clock->advance_s(2.0);
  EXPECT_EQ(service.poll().size(), 1u);
}

TEST(InferQuantity, EmptyChangesetZero) {
  fs::Changeset cs;
  cs.close(1);
  EXPECT_EQ(DiscoveryService::infer_quantity(cs, {}), 0u);
}

TEST(InferQuantity, RealInstallersProduceOneBurstEach) {
  const auto catalog = pkg::Catalog::subset(42, 4, 0);
  auto clock = fs::make_clock();
  fs::InMemoryFilesystem filesystem(clock);
  pkg::provision_base_image(filesystem);
  pkg::Installer installer(filesystem, catalog, Rng(35));
  fs::ChangesetRecorder recorder(filesystem);

  installer.install(catalog.repository_names()[0]);
  clock->advance_s(120.0);  // quiet gap
  installer.install(catalog.repository_names()[1]);
  fs::Changeset cs = recorder.eject();

  DiscoveryServiceConfig config;
  EXPECT_EQ(DiscoveryService::infer_quantity(cs, config), 2u);
}

/// The dense-histogram screen the one-pass infer_quantity replaced: one
/// counter per one-second bin across the whole span. The reference the
/// one-pass form must agree with on every time-ordered changeset.
std::size_t dense_reference_quantity(const fs::Changeset& changeset,
                                     const DiscoveryServiceConfig& config) {
  const auto& records = changeset.records();
  if (records.empty()) return 0;
  const std::int64_t t0 = records.front().time_ms;
  const auto buckets =
      static_cast<std::size_t>((records.back().time_ms - t0) / 1000) + 1;
  std::vector<std::uint32_t> histogram(buckets, 0);
  for (const auto& rec : records) {
    ++histogram[static_cast<std::size_t>((rec.time_ms - t0) / 1000)];
  }
  const auto max_cold = static_cast<std::size_t>(config.burst_gap_s);
  std::size_t bursts = 0;
  std::size_t run_records = 0;
  std::size_t cold_streak = 0;
  bool in_run = false;
  for (std::size_t b = 0; b < buckets; ++b) {
    if (histogram[b] >= config.hot_bucket_records) {
      in_run = true;
      cold_streak = 0;
      run_records += histogram[b];
    } else if (in_run && ++cold_streak > max_cold) {
      if (run_records >= config.burst_min_records) ++bursts;
      in_run = false;
      run_records = 0;
    }
  }
  if (in_run && run_records >= config.burst_min_records) ++bursts;
  return bursts;
}

TEST(InferQuantity, OnePassMatchesDenseHistogramOnRandomTimelines) {
  Rng rng(20261017);
  for (int trial = 0; trial < 2000; ++trial) {
    DiscoveryServiceConfig config;
    config.burst_gap_s = static_cast<double>(rng.next() % 10);
    config.burst_min_records = rng.next() % 30;
    config.hot_bucket_records = rng.next() % 7;  // 0: every bin is hot
    fs::Changeset cs;
    std::int64_t t = static_cast<std::int64_t>(rng.next() % 100'000) - 50'000;
    const auto records = rng.next() % 200;
    for (std::uint64_t i = 0; i < records; ++i) {
      // Dense bursts, short pauses and long silences.
      const auto step = rng.next() % 10;
      t += step < 6 ? static_cast<std::int64_t>(rng.next() % 300)
           : step < 9 ? static_cast<std::int64_t>(rng.next() % 12'000)
                      : static_cast<std::int64_t>(rng.next() % 600'000);
      cs.add(fs::ChangeRecord{"/f" + std::to_string(i), 0644,
                              fs::ChangeKind::kCreate, t});
    }
    cs.close(t + 1);
    ASSERT_EQ(DiscoveryService::infer_quantity(cs, config),
              dense_reference_quantity(cs, config))
        << "trial " << trial;
  }
}

TEST(InferQuantity, HostileTimesNeitherAllocateBySpanNorOverflow) {
  // A decoded frame's records need not be in time order, and its times can
  // be anything: the screen must return without UB or a span-sized array.
  fs::Changeset cs;
  for (const std::int64_t t :
       {std::numeric_limits<std::int64_t>::max(), std::int64_t{0},
        std::numeric_limits<std::int64_t>::min(), std::int64_t{-1},
        std::numeric_limits<std::int64_t>::max()}) {
    cs.add(fs::ChangeRecord{"/x", 0644, fs::ChangeKind::kCreate, t});
  }
  DiscoveryServiceConfig config;
  config.hot_bucket_records = 1;
  config.burst_min_records = 1;
  EXPECT_LE(DiscoveryService::infer_quantity(cs, config), cs.size());
}

}  // namespace
}  // namespace praxi::core
