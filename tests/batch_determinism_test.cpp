// Determinism guarantees of the batch-first engine: every batch API must
// return results label-for-label identical to the sequential loop at every
// thread count (the pool parallelizes per-item work but never reorders or
// perturbs it), and thread-pooled training must produce the same model as
// sequential training because SGD weight updates stay sequential.
#include <gtest/gtest.h>

#include <span>
#include <vector>

#include "columbus/columbus.hpp"
#include "common/thread_pool.hpp"
#include "core/praxi.hpp"
#include "eval/method.hpp"
#include "pkg/dataset.hpp"
#include "service/agent.hpp"
#include "service/server.hpp"
#include "service/transport.hpp"

namespace praxi::core {
namespace {

class BatchDeterminismTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    const auto catalog = pkg::Catalog::subset(42, 10, 2);
    pkg::DatasetBuilder builder(catalog, 7);
    pkg::CollectOptions options;
    options.samples_per_app = 6;
    dirty_ = new pkg::Dataset(builder.collect_dirty(options));
    multi_ = new pkg::Dataset(
        pkg::DatasetBuilder::synthesize_multi(*dirty_, 40, 2, 4, 11));
  }

  static void TearDownTestSuite() {
    delete dirty_;
    delete multi_;
  }

  static std::vector<const fs::Changeset*> split(const pkg::Dataset& dataset,
                                                 int mod, bool take) {
    std::vector<const fs::Changeset*> out;
    for (std::size_t i = 0; i < dataset.changesets.size(); ++i) {
      if ((int(i) % mod == 0) == take) out.push_back(&dataset.changesets[i]);
    }
    return out;
  }

  static pkg::Dataset* dirty_;
  static pkg::Dataset* multi_;
};

pkg::Dataset* BatchDeterminismTest::dirty_ = nullptr;
pkg::Dataset* BatchDeterminismTest::multi_ = nullptr;

const std::size_t kThreadCounts[] = {1, 2, 8};

// The arena extraction pipeline must reproduce the legacy pointer-trie
// pipeline byte for byte, on real corpora at every thread count.
TEST_F(BatchDeterminismTest, ArenaPipelineMatchesLegacyReference) {
  columbus::Columbus columbus;
  for (const pkg::Dataset* dataset : {dirty_, multi_}) {
    std::vector<const fs::Changeset*> batch;
    for (const auto& cs : dataset->changesets) batch.push_back(&cs);
    std::vector<columbus::TagSet> expected;
    for (const fs::Changeset* cs : batch) {
      expected.push_back(columbus.extract_reference(*cs));
    }
    for (const std::size_t threads : kThreadCounts) {
      ThreadPool pool(threads);
      EXPECT_EQ(columbus.extract(batch, threads == 1 ? nullptr : &pool),
                expected)
          << "num_threads=" << threads;
    }
  }
}

// Adversarial path shapes exercise every tokenizer/trie edge case: empty
// paths, shared-prefix floods, single-char segments, duplicates, case
// folds, and system-token-only paths.
TEST_F(BatchDeterminismTest, ArenaPipelineMatchesReferenceOnAdversarialPaths) {
  std::vector<std::string> paths = {
      "",
      "/",
      "////",
      "/a/b/c",                       // all 1-char segments drop
      "/usr/bin/x",                   // system tokens + 1-char
      "/USR/BIN/MySQLd",              // case folding
      "/1234/5678/9.0.1",             // digits/punct-only segments drop
      "no-leading-slash/trailing/",
      "/etc/mysql/conf.d/mysqld.cnf",
      "/etc/mysql/conf.d/mysqld.cnf",  // exact duplicate
  };
  for (int i = 0; i < 48; ++i) {
    paths.push_back("/opt/shared-prefix-flood/depth-" + std::to_string(i % 7) +
                    "/leaf-" + std::to_string(i));
  }
  std::vector<bool> executable(paths.size());
  for (std::size_t i = 0; i < paths.size(); ++i) executable[i] = i % 3 == 0;

  columbus::Columbus columbus;
  const auto expected = columbus.extract_from_paths_reference(paths, executable);
  EXPECT_EQ(columbus.extract_from_paths(paths, executable), expected);
  // Short executable flags (the documented "unknown" form) must agree too.
  EXPECT_EQ(columbus.extract_from_paths(paths, {}),
            columbus.extract_from_paths_reference(paths, {}));
}

// A scratch reused across many extractions must behave exactly like a fresh
// one — and must stop growing once warm (the zero-allocation steady state).
TEST_F(BatchDeterminismTest, ReusedScratchMatchesFreshAndStopsGrowing) {
  columbus::Columbus columbus;
  columbus::ExtractionScratch reused;
  std::size_t warm_footprint = 0;
  for (std::size_t i = 0; i < dirty_->changesets.size(); ++i) {
    const auto& cs = dirty_->changesets[i];
    columbus::ExtractionScratch fresh;
    EXPECT_EQ(columbus.extract(cs, reused), columbus.extract(cs, fresh))
        << "changeset " << i;
    if (i + 1 == dirty_->changesets.size() / 2) {
      warm_footprint = reused.capacity_bytes();
    }
  }
  // One pass over the corpus warms every buffer; a second pass over the
  // same data must not grow the scratch at all.
  ASSERT_GT(warm_footprint, 0u);
  for (const auto& cs : dirty_->changesets) columbus.extract(cs, reused);
  const std::size_t second_pass = reused.capacity_bytes();
  for (const auto& cs : dirty_->changesets) columbus.extract(cs, reused);
  EXPECT_EQ(reused.capacity_bytes(), second_pass);
}

TEST_F(BatchDeterminismTest, ExtractTagsBatchMatchesSequential) {
  const auto batch = split(*dirty_, 4, true);
  Praxi sequential;
  std::vector<columbus::TagSet> expected;
  for (const fs::Changeset* cs : batch) {
    expected.push_back(sequential.extract_tags(*cs));
  }
  for (const std::size_t threads : kThreadCounts) {
    PraxiConfig config;
    config.runtime.num_threads = threads;
    Praxi model(config);
    EXPECT_EQ(model.extract_tags(batch), expected)
        << "num_threads=" << threads;
  }
}

TEST_F(BatchDeterminismTest, PredictBatchMatchesSequentialLoop) {
  const auto train = split(*dirty_, 6, false);
  const auto test = split(*dirty_, 6, true);

  Praxi sequential;
  sequential.train_changesets(train);
  std::vector<std::vector<std::string>> expected;
  const auto sequential_snap = sequential.snapshot();
  for (const fs::Changeset* cs : test) {
    expected.push_back(sequential_snap->predict(*cs));
  }

  for (const std::size_t threads : kThreadCounts) {
    PraxiConfig config;
    config.runtime.num_threads = threads;
    Praxi model(config);
    // Thread-pooled training: parallel tag extraction, sequential SGD.
    model.train_changesets(train);
    EXPECT_EQ(model.snapshot()->predict(test, {}, model.pool()), expected)
        << "num_threads=" << threads;
  }
}

TEST_F(BatchDeterminismTest, MultiLabelPredictBatchMatchesSequentialLoop) {
  auto train = split(*multi_, 5, false);
  for (const auto& cs : dirty_->changesets) train.push_back(&cs);
  const auto test = split(*multi_, 5, true);
  std::vector<std::size_t> counts;
  for (const fs::Changeset* cs : test) counts.push_back(cs->labels().size());

  PraxiConfig sequential_config;
  sequential_config.mode = LabelMode::kMultiLabel;
  Praxi sequential(sequential_config);
  sequential.train_changesets(train);
  std::vector<std::vector<std::string>> expected;
  const auto sequential_snap = sequential.snapshot();
  for (std::size_t i = 0; i < test.size(); ++i) {
    expected.push_back(sequential_snap->predict(*test[i], counts[i]));
  }

  for (const std::size_t threads : kThreadCounts) {
    PraxiConfig config;
    config.mode = LabelMode::kMultiLabel;
    config.runtime.num_threads = threads;
    Praxi model(config);
    model.train_changesets(train);
    const auto snap = model.snapshot();
    EXPECT_EQ(snap->predict(test, counts, model.pool()), expected)
        << "num_threads=" << threads;
    // The pre-extracted-tagset path must agree with the changeset path.
    const auto tagsets = snap->extract_tags(test, model.pool());
    EXPECT_EQ(snap->predict_tags(std::span<const columbus::TagSet>(tagsets),
                                 TopN(counts), model.pool()),
              expected)
        << "num_threads=" << threads;
  }
}

// Every predict form (wire views as the server ingests them, changesets,
// one item) must label every item exactly as the two-step path that
// materializes a TagSet first.
TEST_F(BatchDeterminismTest, PredictFormsMatchPredictTagsOfExtractTags) {
  std::vector<const fs::Changeset*> test = split(*dirty_, 6, true);
  for (const fs::Changeset* cs : split(*multi_, 5, true)) test.push_back(cs);
  std::vector<std::string> wires;
  for (const fs::Changeset* cs : test) {
    service::ChangesetReport report;
    report.agent_id = "agent-0";
    report.changeset = *cs;
    wires.push_back(report.to_wire());
  }
  std::vector<service::ReportView> reports;
  for (const auto& wire : wires) {
    reports.push_back(service::ChangesetReport::view_wire(wire));
  }
  std::vector<const fs::ChangesetView*> views;
  for (const auto& report : reports) views.push_back(&report.changeset);
  EXPECT_THROW(Praxi().snapshot()->predict(views), std::logic_error);
  EXPECT_THROW(Praxi().snapshot()->predict(*test[0]), std::logic_error);

  for (const LabelMode mode :
       {LabelMode::kSingleLabel, LabelMode::kMultiLabel}) {
    auto train = split(*dirty_, 6, false);
    if (mode == LabelMode::kMultiLabel) {
      for (const fs::Changeset* cs : split(*multi_, 5, false)) {
        train.push_back(cs);
      }
    }
    std::vector<std::size_t> counts;
    for (const fs::Changeset* cs : test) {
      counts.push_back(mode == LabelMode::kSingleLabel ? 1
                                                       : cs->labels().size());
    }
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      PraxiConfig config;
      config.mode = mode;
      config.runtime.num_threads = threads;
      Praxi model(config);
      model.train_changesets(train);
      const auto snap = model.snapshot();
      EXPECT_THROW(snap->predict(views, std::vector<std::size_t>(1, 1)),
                   std::invalid_argument);
      const auto got = snap->predict(views, counts, model.pool());
      const auto got_changesets = snap->predict(test, counts, model.pool());
      ASSERT_EQ(got.size(), test.size());
      ASSERT_EQ(got_changesets.size(), test.size());
      for (std::size_t i = 0; i < test.size(); ++i) {
        const auto expected =
            snap->predict_tags(snap->extract_tags(*test[i]), counts[i]);
        EXPECT_EQ(got[i], expected)
            << "mode=" << static_cast<int>(mode) << " threads=" << threads
            << " item=" << i;
        EXPECT_EQ(got_changesets[i], expected) << "item=" << i;
        EXPECT_EQ(snap->predict(*test[i], counts[i]), expected) << "item=" << i;
      }
    }
  }
}

TEST_F(BatchDeterminismTest, SetNumThreadsRetunesALiveModel) {
  const auto train = split(*dirty_, 6, false);
  const auto test = split(*dirty_, 6, true);
  Praxi model;
  model.train_changesets(train);
  const auto expected = model.snapshot()->predict(test, {}, model.pool());
  for (const std::size_t threads : kThreadCounts) {
    model.set_num_threads(threads);
    EXPECT_EQ(model.num_threads(), threads);
    EXPECT_EQ(model.snapshot()->predict(test, {}, model.pool()), expected)
        << "num_threads=" << threads;
  }
}

TEST_F(BatchDeterminismTest, PredictBatchValidatesInputs) {
  Praxi untrained;
  EXPECT_THROW(untrained.snapshot()->predict(split(*dirty_, 6, true)),
               std::logic_error);

  Praxi model;
  model.train_changesets(split(*dirty_, 6, false));
  const auto test = split(*dirty_, 6, true);
  EXPECT_THROW(
      model.snapshot()->predict(
          test, std::vector<std::size_t>(test.size() + 1, 1), model.pool()),
      std::invalid_argument);
}

TEST_F(BatchDeterminismTest, PraxiMethodBatchMatchesBaseSequentialBatch) {
  const auto train = split(*dirty_, 6, false);
  const auto test = split(*dirty_, 6, true);
  const std::vector<std::size_t> counts(test.size(), 1);

  eval::PraxiMethod reference;
  reference.train(train);
  // Qualified call: the base class's sequential predict() loop, no virtual
  // dispatch to the thread-pooled override.
  const auto expected = reference.DiscoveryMethod::predict(
      std::span<const fs::Changeset* const>(test), TopN(counts));

  for (const std::size_t threads : kThreadCounts) {
    PraxiConfig config;
    config.runtime.num_threads = threads;
    eval::PraxiMethod method(config);
    method.train(train);
    EXPECT_EQ(method.predict(std::span<const fs::Changeset* const>(test),
                             TopN(counts)),
              expected)
        << "num_threads=" << threads;
  }
}

TEST_F(BatchDeterminismTest, ServerDiscoveriesIdenticalAtEveryThreadCount) {
  Praxi model;
  model.train_changesets(split(*dirty_, 6, false));
  const auto test = split(*dirty_, 3, true);

  auto run_server = [&](std::size_t threads) {
    service::ServerConfig config;
    config.runtime.num_threads = threads;
    service::DiscoveryServer server(model, config);
    service::MessageBus bus;
    for (std::size_t i = 0; i < test.size(); ++i) {
      service::ChangesetReport report;
      report.agent_id = "agent-" + std::to_string(i % 3);
      report.sequence = i;
      report.changeset = *test[i];
      bus.send(report.to_wire());
    }
    return server.process(bus);
  };

  const auto expected = run_server(1);
  ASSERT_FALSE(expected.empty());
  for (const std::size_t threads : kThreadCounts) {
    const auto got = run_server(threads);
    ASSERT_EQ(got.size(), expected.size()) << "num_threads=" << threads;
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].agent_id, expected[i].agent_id);
      EXPECT_EQ(got[i].sequence, expected[i].sequence);
      EXPECT_EQ(got[i].applications, expected[i].applications);
    }
  }
}

}  // namespace
}  // namespace praxi::core
