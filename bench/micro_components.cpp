// Component micro-benchmarks (google-benchmark): throughput of the building
// blocks the end-to-end numbers in Figs. 4-6 / Table III decompose into.
#include <benchmark/benchmark.h>

#include <cstdlib>

#include "columbus/columbus.hpp"
#include "common/hash.hpp"
#include "common/rng.hpp"
#include "core/praxi.hpp"
#include "deltasherlock/fingerprint.hpp"
#include "fs/recorder.hpp"
#include "ml/online_learner.hpp"
#include "ml/word2vec.hpp"
#include "pkg/dataset.hpp"
#include "pkg/installer.hpp"
#include "service/transport.hpp"

using namespace praxi;

namespace {

/// One shared, lazily-built corpus so every micro-bench measures work, not
/// dataset generation.
const pkg::Dataset& corpus() {
  static const pkg::Dataset dataset = [] {
    const auto catalog = pkg::Catalog::subset(42, 20, 2);
    pkg::DatasetBuilder builder(catalog, 7);
    pkg::CollectOptions options;
    options.samples_per_app = 5;
    return builder.collect_dirty(options);
  }();
  return dataset;
}

void BM_Murmur3_32(benchmark::State& state) {
  const std::string path = "/usr/lib/python3/dist-packages/numpy/core.py";
  for (auto _ : state) {
    benchmark::DoNotOptimize(murmur3_32(path));
  }
}
BENCHMARK(BM_Murmur3_32);

// CRC32C over one ~6 KB report frame: the dispatched crc32c() (hardware
// where the CPU has it) against the portable table it falls back to.
// bytes_per_second is the MB/s figure.
std::string crc_input() {
  std::string bytes(6058, '\0');
  Rng rng(3);
  for (auto& c : bytes) c = static_cast<char>(rng.next() & 0xFF);
  return bytes;
}

void BM_Crc32c(benchmark::State& state) {
  const std::string bytes = crc_input();
  for (auto _ : state) {
    benchmark::DoNotOptimize(crc32c(bytes));
  }
  state.SetBytesProcessed(int64_t(state.iterations()) * int64_t(bytes.size()));
}
BENCHMARK(BM_Crc32c);

void BM_Crc32cTable(benchmark::State& state) {
  const std::string bytes = crc_input();
  for (auto _ : state) {
    benchmark::DoNotOptimize(detail::crc32c_table(bytes));
  }
  state.SetBytesProcessed(int64_t(state.iterations()) * int64_t(bytes.size()));
}
BENCHMARK(BM_Crc32cTable);

// Decoding one report frame of about 6 KB (the install-wave size): the v1
// frame materialized (two CRC passes, one string per record) against the
// v2 frame decoded to the view the server ingests.
service::ChangesetReport decode_input() {
  // The corpus changeset whose frame is closest to 6 KB.
  service::ChangesetReport report;
  report.agent_id = "agent-000042";
  report.sequence = 7;
  const fs::Changeset* best = nullptr;
  std::size_t best_distance = SIZE_MAX;
  for (const auto& cs : corpus().changesets) {
    report.changeset = cs;
    const auto size = static_cast<std::ptrdiff_t>(report.to_wire().size());
    const auto distance = static_cast<std::size_t>(std::abs(size - 6000));
    if (distance < best_distance) {
      best_distance = distance;
      best = &cs;
    }
  }
  report.changeset = *best;
  return report;
}

void BM_ReportFromWireV1(benchmark::State& state) {
  const std::string wire = decode_input().to_wire_v1();
  for (auto _ : state) {
    benchmark::DoNotOptimize(service::ChangesetReport::from_wire(wire));
  }
  state.counters["frame_bytes"] = static_cast<double>(wire.size());
}
BENCHMARK(BM_ReportFromWireV1)->Unit(benchmark::kMicrosecond);

void BM_ReportViewWireV2(benchmark::State& state) {
  const std::string wire = decode_input().to_wire();
  for (auto _ : state) {
    benchmark::DoNotOptimize(service::ChangesetReport::view_wire(wire));
  }
  state.counters["frame_bytes"] = static_cast<double>(wire.size());
}
BENCHMARK(BM_ReportViewWireV2)->Unit(benchmark::kMicrosecond);

void BM_FrequencyTrieInsert(benchmark::State& state) {
  std::vector<std::string> tokens;
  Rng rng(1);
  for (int i = 0; i < 256; ++i) {
    tokens.push_back("token-" + std::to_string(rng.below(64)) + "-suffix");
  }
  for (auto _ : state) {
    columbus::FrequencyTrie trie;
    for (const auto& token : tokens) trie.insert(token);
    benchmark::DoNotOptimize(trie.token_count());
  }
  state.SetItemsProcessed(int64_t(state.iterations()) * 256);
}
BENCHMARK(BM_FrequencyTrieInsert);

void BM_ArenaTrieInsert(benchmark::State& state) {
  std::vector<std::string> tokens;
  Rng rng(1);
  for (int i = 0; i < 256; ++i) {
    tokens.push_back("token-" + std::to_string(rng.below(64)) + "-suffix");
  }
  columbus::ArenaTrie trie;  // reused: clear() keeps the node pool warm
  for (auto _ : state) {
    trie.clear();
    for (const auto& token : tokens) trie.insert(token);
    benchmark::DoNotOptimize(trie.token_count());
  }
  state.SetItemsProcessed(int64_t(state.iterations()) * 256);
}
BENCHMARK(BM_ArenaTrieInsert);

void BM_Tokenize(benchmark::State& state) {
  const columbus::Tokenizer tokenizer;
  const std::string path = "/usr/lib/Python3/dist-packages/NumPy/core.py";
  for (auto _ : state) {
    benchmark::DoNotOptimize(tokenizer.tokenize(path));
  }
  state.SetItemsProcessed(int64_t(state.iterations()));
}
BENCHMARK(BM_Tokenize);

void BM_TokenizeViews(benchmark::State& state) {
  const columbus::Tokenizer tokenizer;
  const std::string path = "/usr/lib/Python3/dist-packages/NumPy/core.py";
  columbus::CharArena arena;
  std::vector<std::string_view> tokens;
  for (auto _ : state) {
    arena.clear();
    tokens.clear();
    tokenizer.tokenize_views(path, arena, tokens);
    benchmark::DoNotOptimize(tokens.size());
  }
  state.SetItemsProcessed(int64_t(state.iterations()));
}
BENCHMARK(BM_TokenizeViews);

void BM_ColumbusExtract(benchmark::State& state) {
  const auto& cs = corpus().changesets.front();
  columbus::Columbus columbus;
  for (auto _ : state) {
    benchmark::DoNotOptimize(columbus.extract(cs));
  }
  state.SetItemsProcessed(int64_t(state.iterations()) *
                          int64_t(cs.records().size()));
}
BENCHMARK(BM_ColumbusExtract);

// The pre-arena pipeline, kept runnable so the speedup and the memory
// accounting fix stay visible in one run (tags are bit-identical).
void BM_ColumbusExtractLegacy(benchmark::State& state) {
  const auto& cs = corpus().changesets.front();
  columbus::Columbus columbus;
  for (auto _ : state) {
    benchmark::DoNotOptimize(columbus.extract_reference(cs));
  }
  state.SetItemsProcessed(int64_t(state.iterations()) *
                          int64_t(cs.records().size()));
}
BENCHMARK(BM_ColumbusExtractLegacy);

/// The install_wave traffic shape (perfbench): 8 dirty singles of every
/// standard application plus 332 windows of 2-5 applications.
const pkg::Dataset& install_wave() {
  static const pkg::Dataset dataset = [] {
    const auto catalog = pkg::Catalog::standard(42);
    pkg::DatasetBuilder builder(catalog, 7);
    pkg::CollectOptions options;
    options.samples_per_app = 8;
    pkg::Dataset singles = builder.collect_dirty(options);
    singles.refresh_labels();
    pkg::Dataset multi =
        pkg::DatasetBuilder::synthesize_multi(singles, 332, 2, 5, 11);
    for (auto& cs : multi.changesets) {
      singles.changesets.push_back(std::move(cs));
    }
    return singles;
  }();
  return dataset;
}

// Extraction cycling through every install_wave report, not one changeset:
// the directory mix and tag counts of real traffic.
void BM_ColumbusExtractInstallWave(benchmark::State& state) {
  const auto& changesets = install_wave().changesets;
  columbus::Columbus columbus;
  std::size_t i = 0;
  std::int64_t records = 0;
  for (auto _ : state) {
    const auto& cs = changesets[i++ % changesets.size()];
    benchmark::DoNotOptimize(columbus.extract(cs));
    records += static_cast<std::int64_t>(cs.records().size());
  }
  state.SetItemsProcessed(records);
}
BENCHMARK(BM_ColumbusExtractInstallWave)->Unit(benchmark::kMicrosecond);

// The worst case for the per-directory pass: the install_wave reports with
// every path moved under a directory of its own, so no directory repeats
// within a report. The inserted segment is the record's index, which the
// tokenizer drops (all digits), so the tags are those of the row above.
void BM_ColumbusExtractDirectoryPerPath(benchmark::State& state) {
  struct Report {
    std::vector<std::string> paths;
    std::vector<bool> executable;
  };
  std::vector<Report> reports;
  for (const auto& cs : install_wave().changesets) {
    Report report;
    for (const auto& rec : cs.records()) {
      const std::size_t slash = rec.path.rfind('/');
      const std::string index = std::to_string(report.paths.size());
      report.paths.push_back(
          slash == std::string::npos
              ? index + "/" + rec.path
              : rec.path.substr(0, slash) + "/" + index + rec.path.substr(slash));
      report.executable.push_back(rec.executable());
    }
    reports.push_back(std::move(report));
  }
  columbus::Columbus columbus;
  std::size_t i = 0;
  std::int64_t records = 0;
  for (auto _ : state) {
    const Report& report = reports[i++ % reports.size()];
    benchmark::DoNotOptimize(
        columbus.extract_from_paths(report.paths, report.executable));
    records += static_cast<std::int64_t>(report.paths.size());
  }
  state.SetItemsProcessed(records);
}
BENCHMARK(BM_ColumbusExtractDirectoryPerPath)->Unit(benchmark::kMicrosecond);

// The server's fused extract -> predict task over decoded wire views, one
// install_wave report per iteration, multi-label top-n as the quantity
// screen would ask for.
void BM_SnapshotClassify(benchmark::State& state) {
  const auto& changesets = install_wave().changesets;
  core::PraxiConfig config;
  config.mode = core::LabelMode::kMultiLabel;
  core::Praxi model(config);
  std::vector<const fs::Changeset*> train;
  for (const auto& cs : changesets) train.push_back(&cs);
  model.train_changesets(train);
  std::vector<std::string> wires;
  std::vector<std::size_t> counts;
  for (const auto& cs : changesets) {
    service::ChangesetReport report;
    report.agent_id = "agent-000042";
    report.changeset = cs;
    wires.push_back(report.to_wire());
    counts.push_back(cs.labels().size());
  }
  std::vector<service::ReportView> views;
  for (const auto& wire : wires) {
    views.push_back(service::ChangesetReport::view_wire(wire));
  }
  const auto snap = model.snapshot();
  std::size_t i = 0;
  for (auto _ : state) {
    const std::size_t k = i++ % views.size();
    const fs::ChangesetView* item[] = {&views[k].changeset};
    benchmark::DoNotOptimize(snap->predict(item, counts[k]));
  }
}
BENCHMARK(BM_SnapshotClassify)->Unit(benchmark::kMicrosecond);

void BM_PraxiLearnOne(benchmark::State& state) {
  core::Praxi model;
  const auto tags = model.extract_tags(corpus().changesets.front());
  for (auto _ : state) {
    model.learn_one(tags);
  }
}
BENCHMARK(BM_PraxiLearnOne);

void BM_PraxiPredict(benchmark::State& state) {
  core::Praxi model;
  std::vector<const fs::Changeset*> train;
  for (const auto& cs : corpus().changesets) train.push_back(&cs);
  model.train_changesets(train);
  const auto tags = model.extract_tags(corpus().changesets.front());
  const auto snap = model.snapshot();
  for (auto _ : state) {
    benchmark::DoNotOptimize(snap->predict_tags(tags));
  }
}
BENCHMARK(BM_PraxiPredict);

void BM_AsciiHistogram(benchmark::State& state) {
  const auto& cs = corpus().changesets.front();
  for (auto _ : state) {
    benchmark::DoNotOptimize(ds::ascii_histogram(cs));
  }
}
BENCHMARK(BM_AsciiHistogram);

void BM_Word2VecEpoch(benchmark::State& state) {
  std::vector<std::vector<std::string>> sentences;
  for (const auto& cs : corpus().changesets) {
    auto more = ds::filetree_sentences(cs);
    sentences.insert(sentences.end(), more.begin(), more.end());
    if (sentences.size() > 2000) break;
  }
  ml::Word2VecConfig config;
  config.epochs = 1;
  for (auto _ : state) {
    ml::Word2Vec w2v(config);
    w2v.train(sentences);
    benchmark::DoNotOptimize(w2v.vocab_size());
  }
  state.SetItemsProcessed(int64_t(state.iterations()) *
                          int64_t(sentences.size()));
}
BENCHMARK(BM_Word2VecEpoch);

void BM_ChangesetSerialize(benchmark::State& state) {
  const auto& cs = corpus().changesets.front();
  for (auto _ : state) {
    benchmark::DoNotOptimize(cs.to_binary());
  }
  state.SetBytesProcessed(int64_t(state.iterations()) *
                          int64_t(cs.size_bytes()));
}
BENCHMARK(BM_ChangesetSerialize);

void BM_InstallerInstall(benchmark::State& state) {
  const auto catalog = pkg::Catalog::subset(42, 20, 2);
  for (auto _ : state) {
    state.PauseTiming();
    auto clock = fs::make_clock();
    fs::InMemoryFilesystem filesystem(clock);
    pkg::provision_base_image(filesystem);
    pkg::Installer installer(filesystem, catalog, Rng(1));
    state.ResumeTiming();
    installer.install("nginx");
  }
}
BENCHMARK(BM_InstallerInstall);

}  // namespace

BENCHMARK_MAIN();
