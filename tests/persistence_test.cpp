// Persistence hardening tests (docs/PERSISTENCE.md):
//   * corruption injection — every serialized artifact, truncated at every
//     prefix length and scribbled with seeded random byte flips, must throw
//     SerializeError from its loader: never UB, a crash, or a giant
//     allocation;
//   * save/load equivalence — a reloaded model must continue online learning
//     byte-for-byte identically to one that was never saved;
//   * crash-safe files — a simulated crash between temp-write and rename
//     leaves the complete previous snapshot readable.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "cli/cli.hpp"
#include "common/rng.hpp"
#include "common/serialize.hpp"
#include "core/discovery_service.hpp"
#include "core/praxi.hpp"
#include "core/tagset_store.hpp"
#include "fs/changeset.hpp"
#include "ml/kernel_svm.hpp"
#include "ml/online_learner.hpp"
#include "ml/word2vec.hpp"
#include "pkg/dataset.hpp"
#include "service/transport.hpp"

namespace praxi {
namespace {

// ---------------------------------------------------------------------------
// Small fixture artifacts (tiny learner tables keep blobs a few KB, so the
// exhaustive truncation sweep stays fast).
// ---------------------------------------------------------------------------

fs::Changeset make_changeset(const std::string& label,
                             const std::vector<std::string>& paths) {
  fs::Changeset cs;
  cs.set_open_time(1000);
  std::int64_t t = 1001;
  for (const auto& path : paths) {
    cs.add({path, 0644, fs::ChangeKind::kCreate, t++});
  }
  cs.close(t);
  cs.add_label(label);
  return cs;
}

std::vector<fs::Changeset> training_corpus() {
  return {
      make_changeset("nginx", {"/usr/sbin/nginx", "/etc/nginx/nginx.conf",
                               "/usr/lib/nginx/modules/mod_http.so"}),
      make_changeset("redis", {"/usr/bin/redis-server", "/etc/redis/redis.conf",
                               "/usr/lib/redis/modules/bloom.so"}),
      make_changeset("mysql", {"/usr/sbin/mysqld", "/etc/mysql/my.cnf",
                               "/var/lib/mysql/ibdata1"}),
  };
}

core::Praxi tiny_trained_praxi(core::LabelMode mode) {
  core::PraxiConfig config;
  config.mode = mode;
  config.learner.bits = 8;
  core::Praxi model(config);
  static const auto corpus = training_corpus();
  std::vector<const fs::Changeset*> pointers;
  for (const auto& cs : corpus) pointers.push_back(&cs);
  model.train_changesets(pointers);
  return model;
}

columbus::TagSet tiny_tagset() {
  columbus::TagSet ts;
  ts.tags = {{"nginx", 5}, {"nginx.conf", 2}, {"modules", 1}};
  ts.labels = {"nginx"};
  return ts;
}

/// One serialized artifact plus the loader that must reject corrupt bytes.
struct Artifact {
  std::string name;
  std::string bytes;
  std::function<void(std::string_view)> load;
};

std::vector<Artifact> all_artifacts() {
  std::vector<Artifact> artifacts;

  artifacts.push_back({"praxi-single",
                       tiny_trained_praxi(core::LabelMode::kSingleLabel).to_binary(),
                       [](std::string_view b) { core::Praxi::from_binary(b); }});
  artifacts.push_back({"praxi-multi",
                       tiny_trained_praxi(core::LabelMode::kMultiLabel).to_binary(),
                       [](std::string_view b) { core::Praxi::from_binary(b); }});

  ml::OnlineLearnerConfig learner_config;
  learner_config.bits = 8;
  ml::OaaClassifier oaa(learner_config);
  oaa.learn_one({{1, 1.0f}, {7, 0.5f}}, "nginx");
  oaa.learn_one({{2, 1.0f}, {9, 0.5f}}, "redis");
  artifacts.push_back(
      {"oaa", oaa.to_binary(),
       [](std::string_view b) { ml::OaaClassifier::from_binary(b); }});

  ml::CsoaaClassifier csoaa(learner_config);
  csoaa.learn_one({{1, 1.0f}, {7, 0.5f}}, {"nginx", "redis"});
  artifacts.push_back(
      {"csoaa", csoaa.to_binary(),
       [](std::string_view b) { ml::CsoaaClassifier::from_binary(b); }});

  artifacts.push_back(
      {"tagset", tiny_tagset().to_binary(),
       [](std::string_view b) { columbus::TagSet::from_binary(b); }});

  core::TagsetStore store;
  store.add(tiny_tagset());
  artifacts.push_back(
      {"tagset-store", store.to_binary(),
       [](std::string_view b) { core::TagsetStore::from_binary(b); }});

  const auto corpus = training_corpus();
  artifacts.push_back(
      {"changeset", corpus[0].to_binary(),
       [](std::string_view b) { fs::Changeset::from_binary(b); }});

  service::ChangesetReport report;
  report.agent_id = "vm-042";
  report.sequence = 7;
  report.changeset = corpus[1];
  artifacts.push_back(
      {"wire-report", report.to_wire(),
       [](std::string_view b) { service::ChangesetReport::from_wire(b); }});
  artifacts.push_back(
      {"wire-report-view", report.to_wire(),
       [](std::string_view b) { service::ChangesetReport::view_wire(b); }});
  artifacts.push_back(
      {"wire-report-v1", report.to_wire_v1(),
       [](std::string_view b) { service::ChangesetReport::from_wire(b); }});

  pkg::Dataset dataset;
  dataset.changesets = corpus;
  dataset.refresh_labels();
  artifacts.push_back(
      {"dataset", dataset.to_binary(),
       [](std::string_view b) { pkg::Dataset::from_binary(b); }});

  return artifacts;
}

// ---------------------------------------------------------------------------
// Corruption injection
// ---------------------------------------------------------------------------

TEST(CorruptionInjection, IntactArtifactsLoad) {
  for (const auto& artifact : all_artifacts()) {
    EXPECT_NO_THROW(artifact.load(artifact.bytes)) << artifact.name;
  }
}

TEST(CorruptionInjection, TruncationAtEveryPrefixRejected) {
  for (const auto& artifact : all_artifacts()) {
    const std::string_view bytes(artifact.bytes);
    for (std::size_t keep = 0; keep < bytes.size(); ++keep) {
      EXPECT_THROW(artifact.load(bytes.substr(0, keep)), SerializeError)
          << artifact.name << " truncated to " << keep << " of "
          << bytes.size();
    }
  }
}

TEST(CorruptionInjection, SeededRandomByteFlipsRejected) {
  // Payload flips are error bursts of <= 8 bits, which CRC32C is guaranteed
  // to catch; header flips hit the magic/version/length/crc checks. So every
  // single-byte flip must throw — there is no lucky corruption.
  Rng rng(20260805);
  for (const auto& artifact : all_artifacts()) {
    for (int trial = 0; trial < 150; ++trial) {
      std::string dirty = artifact.bytes;
      const auto pos = static_cast<std::size_t>(rng.next() % dirty.size());
      const auto flip = static_cast<char>(1 + rng.next() % 255);
      dirty[pos] = static_cast<char>(dirty[pos] ^ flip);
      EXPECT_THROW(artifact.load(dirty), SerializeError)
          << artifact.name << " flip at " << pos;
    }
  }
}

TEST(CorruptionInjection, ArbitraryGarbageRejected) {
  Rng rng(42);
  const auto artifacts = all_artifacts();
  for (std::size_t len : {0u, 1u, 19u, 20u, 64u, 4096u}) {
    std::string garbage(len, '\0');
    for (auto& c : garbage) c = static_cast<char>(rng.next() & 0xFF);
    for (const auto& artifact : artifacts) {
      EXPECT_THROW(artifact.load(garbage), SerializeError)
          << artifact.name << " len " << len;
    }
  }
}

// ---------------------------------------------------------------------------
// Fuzz-promoted regression cases (docs/STATIC_ANALYSIS.md)
//
// One hand-minimized crasher per decoder family, in CHECKSUM-VALID form:
// the payload is mutated and then re-sealed with a fresh CRC, so these
// inputs sail through the envelope checks and attack the per-format
// decoding logic directly — the corruption class the byte-flip suite above
// can never reach (CRC rejects every flip first). Each case pins down a
// hostile-field bug class fixed during PR 2's hardening; the fuzz harnesses
// under fuzz/ mutate from these same shapes continuously.
// ---------------------------------------------------------------------------

/// Re-seals `snapshot` after `mutate` edits its payload, recomputing the
/// CRC so the result is structurally valid right up to the format decoder.
std::string reseal_mutated(std::string_view snapshot,
                           const std::function<void(std::string&)>& mutate) {
  BinaryReader r(snapshot);
  const auto magic = r.get<std::uint32_t>();
  const auto version = r.get<std::uint32_t>();
  std::string payload(snapshot.substr(kSnapshotHeaderBytes));
  mutate(payload);
  return seal_snapshot(magic, version, payload);
}

template <typename T>
void overwrite(std::string& payload, std::size_t offset, T value) {
  ASSERT_LE(offset + sizeof(T), payload.size());
  std::memcpy(payload.data() + offset, &value, sizeof(T));
}

TEST(FuzzRegression, PraxiRejectsBadLabelModeByte) {
  // PRX1: mode byte 9 selected an out-of-range LabelMode.
  const auto bad = reseal_mutated(
      tiny_trained_praxi(core::LabelMode::kSingleLabel).to_binary(),
      [](std::string& p) { overwrite<std::uint8_t>(p, 0, 9); });
  EXPECT_THROW(core::Praxi::from_binary(bad), SerializeError);
}

TEST(FuzzRegression, OaaRejectsWeightTableBitsAboveThirty) {
  // POA1: bits=31 once shifted 1<<31 into signed UB before any bound check.
  ml::OnlineLearnerConfig config;
  config.bits = 8;
  ml::OaaClassifier oaa(config);
  oaa.learn_one({{1, 1.0f}}, "nginx");
  const auto bad = reseal_mutated(oaa.to_binary(), [](std::string& p) {
    overwrite<std::uint32_t>(p, 0, 31);
  });
  EXPECT_THROW(ml::OaaClassifier::from_binary(bad), SerializeError);
}

TEST(FuzzRegression, CsoaaRejectsZeroWeightTableBits) {
  // PCS2: bits=0 made the weight table a single slot every hash hit.
  ml::OnlineLearnerConfig config;
  config.bits = 8;
  ml::CsoaaClassifier csoaa(config);
  csoaa.learn_one({{1, 1.0f}}, {"nginx"});
  const auto bad = reseal_mutated(csoaa.to_binary(), [](std::string& p) {
    overwrite<std::uint32_t>(p, 0, 0);
  });
  EXPECT_THROW(ml::CsoaaClassifier::from_binary(bad), SerializeError);
}

TEST(FuzzRegression, ChangesetRejectsHostileRecordCount) {
  // PCS1: a record count claiming ~2^64 entries must be bounded by the
  // bytes actually present, not allocated. Offset: open/close times (16) +
  // closed byte (1) + label count (4) + "nginx" (4 + 5).
  const auto cs = make_changeset("nginx", {"/usr/sbin/nginx"});
  const auto bad = reseal_mutated(cs.to_binary(), [](std::string& p) {
    overwrite<std::uint64_t>(p, 30, ~std::uint64_t{0});
  });
  EXPECT_THROW(fs::Changeset::from_binary(bad), SerializeError);
}

TEST(FuzzRegression, TagSetRejectsHostileLabelCount) {
  // PTG1: label count 2^32-1 with a few dozen payload bytes behind it.
  const auto bad = reseal_mutated(tiny_tagset().to_binary(),
                                  [](std::string& p) {
                                    overwrite<std::uint32_t>(p, 0,
                                                             0xFFFFFFFFu);
                                  });
  EXPECT_THROW(columbus::TagSet::from_binary(bad), SerializeError);
}

TEST(FuzzRegression, TagsetStoreRejectsHostileEntryCount) {
  // PTS1: entry count u64 at payload offset 0.
  core::TagsetStore store;
  store.add(tiny_tagset());
  const auto bad = reseal_mutated(store.to_binary(), [](std::string& p) {
    overwrite<std::uint64_t>(p, 0, ~std::uint64_t{0});
  });
  EXPECT_THROW(core::TagsetStore::from_binary(bad), SerializeError);
}

TEST(FuzzRegression, DatasetRejectsHostileChangesetCount) {
  // PDS1: changeset count u64 at payload offset 0.
  pkg::Dataset dataset;
  dataset.changesets = training_corpus();
  dataset.refresh_labels();
  const auto bad = reseal_mutated(dataset.to_binary(), [](std::string& p) {
    overwrite<std::uint64_t>(p, 0, ~std::uint64_t{0});
  });
  EXPECT_THROW(pkg::Dataset::from_binary(bad), SerializeError);
}

TEST(FuzzRegression, Word2VecRejectsHostileVocabCount) {
  // PW2V: vocab count u32 after the 40-byte config block.
  ml::Word2VecConfig config;
  config.dim = 4;
  config.min_count = 1;
  config.epochs = 1;
  ml::Word2Vec w2v(config);
  w2v.train({{"usr", "sbin", "nginx"}, {"usr", "bin", "redis"}});
  const auto bad = reseal_mutated(w2v.to_binary(), [](std::string& p) {
    overwrite<std::uint32_t>(p, 40, 0xFFFFFFFFu);
  });
  EXPECT_THROW(ml::Word2Vec::from_binary(bad), SerializeError);
}

TEST(FuzzRegression, SvmRejectsHostileSupportVectorCount) {
  // PSV1: support-vector count u64 after the 48-byte config block.
  ml::RbfSvmConfig config;
  config.epochs = 1;
  ml::RbfSvmOva svm(config);
  svm.train({{1.0f, 0.0f}, {0.0f, 1.0f}}, {{0u}, {1u}}, 2);
  const auto bad = reseal_mutated(svm.to_binary(), [](std::string& p) {
    overwrite<std::uint64_t>(p, 48, ~std::uint64_t{0});
  });
  EXPECT_THROW(ml::RbfSvmOva::from_binary(bad), SerializeError);
}

TEST(FuzzRegression, WireReportRejectsHostileAgentIdLength) {
  // PRPT: agent-id string length u32 at payload offset 0 pointing far past
  // the frame; peek_agent_id must also stay noexcept-silent on it.
  service::ChangesetReport report;
  report.agent_id = "vm-042";
  report.sequence = 7;
  report.changeset = make_changeset("redis", {"/usr/bin/redis-server"});
  const auto bad = reseal_mutated(report.to_wire(), [](std::string& p) {
    overwrite<std::uint32_t>(p, 0, 0x7FFFFFFFu);
  });
  EXPECT_THROW(service::ChangesetReport::from_wire(bad), SerializeError);
  EXPECT_EQ(service::ChangesetReport::peek_agent_id(bad), "");
}

/// Decodes a frame the way the server does — view, screen, extract — and
/// also materializes it. Anything but SerializeError escaping is a bug.
void ingest_like_the_server(std::string_view wire) {
  const auto view = service::ChangesetReport::view_wire(wire);
  (void)core::DiscoveryService::infer_quantity(view.changeset, {});
  columbus::Columbus columbus;
  (void)columbus.extract(view.changeset, columbus::tls_extraction_scratch());
  (void)service::ChangesetReport::from_wire(wire);
}

service::ChangesetReport hostile_input_report() {
  service::ChangesetReport report;
  report.agent_id = "vm-042";
  report.sequence = 7;
  report.changeset = make_changeset(
      "redis", {"/usr/bin/redis-server", "/etc/redis/redis.conf",
                "/usr/lib/redis/modules/bloom.so", "/var/lib/redis/dump.rdb"});
  report.changeset.add_label("redis-tools");
  return report;
}

TEST(WireReportV2, EveryTruncationThrowsOnlySerializeError) {
  const std::string wire = hostile_input_report().to_wire();
  ASSERT_NO_THROW(ingest_like_the_server(wire));
  for (std::size_t keep = 0; keep < wire.size(); ++keep) {
    EXPECT_THROW(ingest_like_the_server(std::string_view(wire).substr(0, keep)),
                 SerializeError)
        << "truncated to " << keep << " of " << wire.size();
  }
}

TEST(WireReportV2, ResealedPayloadMutationsThrowOnlySerializeError) {
  // Re-sealed, so every mutation passes the CRC and reaches the record
  // parser's bounds checks (and, when it still parses, the screen and the
  // extractor). A mutation may decode cleanly — a changed path byte is a
  // valid report — but it must never escape as anything but SerializeError.
  const std::string wire = hostile_input_report().to_wire();
  const std::size_t payload_size = wire.size() - kSnapshotHeaderBytes;
  Rng rng(20261017);
  std::size_t rejected = 0;
  constexpr int kTrials = 4000;
  for (int trial = 0; trial < kTrials; ++trial) {
    const auto mutated = reseal_mutated(wire, [&](std::string& p) {
      switch (rng.next() % 4) {
        case 0: {  // a burst of random byte flips
          for (int k = 0, n = 1 + static_cast<int>(rng.next() % 4); k < n; ++k)
            p[rng.next() % p.size()] ^= static_cast<char>(1 + rng.next() % 255);
          break;
        }
        case 1: {  // a hostile u32 (string length, label count)
          const std::uint32_t values[] = {0u, 1u, 0x7FFFFFFFu, 0xFFFFFFFFu,
                                          static_cast<std::uint32_t>(
                                              rng.next() % 512)};
          overwrite<std::uint32_t>(p, rng.next() % (payload_size - 3),
                                   values[rng.next() % 5]);
          break;
        }
        case 2: {  // a hostile u64 (record count, times, sequence)
          const std::uint64_t values[] = {
              0u, 1u, ~std::uint64_t{0}, std::uint64_t{1} << 63,
              static_cast<std::uint64_t>(rng.next())};
          overwrite<std::uint64_t>(p, rng.next() % (payload_size - 7),
                                   values[rng.next() % 5]);
          break;
        }
        default:  // drop or append bytes: the length fields now lie
          if (rng.next() % 2 == 0) {
            p.erase(rng.next() % p.size(), 1 + rng.next() % 8);
          } else {
            p.append(1 + rng.next() % 8, static_cast<char>(rng.next()));
          }
      }
    });
    try {
      ingest_like_the_server(mutated);
    } catch (const SerializeError&) {
      ++rejected;
    }
  }
  // The suite must actually exercise the rejection paths.
  EXPECT_GT(rejected, static_cast<std::size_t>(kTrials / 4));
}

// ---------------------------------------------------------------------------
// Save/load equivalence under continued online learning
// ---------------------------------------------------------------------------

class SaveLoadLearnEquivalence
    : public ::testing::TestWithParam<core::LabelMode> {};

TEST_P(SaveLoadLearnEquivalence, ReloadedModelLearnsIdentically) {
  core::Praxi original = tiny_trained_praxi(GetParam());
  core::Praxi reloaded = core::Praxi::from_binary(original.to_binary());

  // Feed the SAME feedback to both, then they must agree label-for-label on
  // every prediction — and byte-for-byte on their snapshots.
  const auto feedback = make_changeset(
      "haproxy", {"/usr/sbin/haproxy", "/etc/haproxy/haproxy.cfg"});
  original.learn_one(original.extract_tags(feedback));
  reloaded.learn_one(reloaded.extract_tags(feedback));

  const auto probes = training_corpus();
  const auto original_snap = original.snapshot();
  const auto reloaded_snap = reloaded.snapshot();
  for (const auto& cs : probes) {
    EXPECT_EQ(original_snap->predict(cs, 2), reloaded_snap->predict(cs, 2));
  }
  EXPECT_EQ(original_snap->predict(feedback, 1),
            reloaded_snap->predict(feedback, 1));
  EXPECT_EQ(original.to_binary(), reloaded.to_binary());
}

INSTANTIATE_TEST_SUITE_P(BothModes, SaveLoadLearnEquivalence,
                         ::testing::Values(core::LabelMode::kSingleLabel,
                                           core::LabelMode::kMultiLabel));

// ---------------------------------------------------------------------------
// Crash-safe files
// ---------------------------------------------------------------------------

TEST(CrashSafety, ModelSurvivesCrashDuringResave) {
  namespace stdfs = std::filesystem;
  const auto dir = stdfs::temp_directory_path() / "praxi_persistence_crash";
  stdfs::create_directories(dir);
  const std::string path = (dir / "model.praxi").string();

  core::Praxi model = tiny_trained_praxi(core::LabelMode::kSingleLabel);
  const std::string snapshot_a = model.to_binary();
  write_file_atomic(path, snapshot_a);

  model.learn_one(tiny_tagset());
  testhooks::simulate_crash_before_rename = true;
  EXPECT_THROW(write_file_atomic(path, model.to_binary()), SerializeError);
  testhooks::simulate_crash_before_rename = false;

  // After the "crash", the file still loads — and is exactly snapshot A.
  EXPECT_EQ(read_file(path), snapshot_a);
  EXPECT_NO_THROW(core::Praxi::from_binary(read_file(path)));

  write_file_atomic(path, model.to_binary());
  EXPECT_EQ(read_file(path), model.to_binary());
  stdfs::remove_all(dir);
}

TEST(CrashSafety, TagsetStoreFileRoundTripAndCorruptionDetected) {
  namespace stdfs = std::filesystem;
  const auto dir = stdfs::temp_directory_path() / "praxi_persistence_store";
  stdfs::create_directories(dir);
  const std::string path = (dir / "store.bin").string();

  core::TagsetStore store;
  store.add(tiny_tagset());
  store.save(path);
  const auto loaded = core::TagsetStore::load(path);
  EXPECT_EQ(loaded.size(), 1u);

  // Flip one byte on disk: load() must detect it, not return a wrong store.
  std::string bytes = read_file(path);
  bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0x20);
  write_file(path, bytes);
  EXPECT_THROW(core::TagsetStore::load(path), SerializeError);
  stdfs::remove_all(dir);
}

// ---------------------------------------------------------------------------
// CLI surfaces load failures with path + offset/reason
// ---------------------------------------------------------------------------

TEST(CliDiagnostics, CorruptModelFileReportsPathAndReason) {
  namespace stdfs = std::filesystem;
  const std::string path =
      (stdfs::temp_directory_path() / "praxi_cli_corrupt.model").string();
  std::string bytes =
      tiny_trained_praxi(core::LabelMode::kSingleLabel).to_binary();
  bytes[bytes.size() - 3] = static_cast<char>(bytes[bytes.size() - 3] ^ 0x01);
  write_file(path, bytes);

  std::ostringstream out, err;
  const int rc = cli::run({"inspect", "--model", path}, out, err);
  EXPECT_EQ(rc, 1);
  const std::string message = err.str();
  EXPECT_NE(message.find("cannot load model"), std::string::npos) << message;
  EXPECT_NE(message.find(path), std::string::npos) << message;
  std::remove(path.c_str());
}

TEST(CliDiagnostics, TruncatedModelFileReportsOffset) {
  namespace stdfs = std::filesystem;
  const std::string path =
      (stdfs::temp_directory_path() / "praxi_cli_truncated.model").string();
  const std::string bytes =
      tiny_trained_praxi(core::LabelMode::kSingleLabel).to_binary();
  write_file(path, bytes.substr(0, 10));

  std::ostringstream out, err;
  const int rc = cli::run({"predict", "--model", path, "/nonexistent"}, out,
                          err);
  EXPECT_EQ(rc, 1);
  // The reader embeds the failing byte offset in its message.
  EXPECT_NE(err.str().find("at byte"), std::string::npos) << err.str();
  std::remove(path.c_str());
}

}  // namespace
}  // namespace praxi
