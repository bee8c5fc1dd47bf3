// Durable ingest tests (docs/DURABILITY.md): WAL record/segment replay
// semantics on hostile bytes, the settle-order contract (process → WAL
// append → one batched fsync → ack), kill-at-every-byte-offset restarts
// converging bit-identically to the clean run, snapshot+truncate
// compaction, the crash-before-commit window (a classification failure must
// leave no acceptance trace), and idle-agent tracker eviction.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "common/serialize.hpp"
#include "core/praxi.hpp"
#include "obs/metrics.hpp"
#include "service/server.hpp"
#include "service/transport.hpp"
#include "service/wal.hpp"

namespace praxi::service {
namespace {

namespace stdfs = std::filesystem;

// ------------------------------------------------------------ fixtures ----

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

const std::vector<fs::Changeset>& training_corpus() {
  static const std::vector<fs::Changeset> corpus = {
      make_changeset("nginx", {"/usr/sbin/nginx", "/etc/nginx/nginx.conf",
                               "/usr/lib/nginx/modules/mod_http.so"}),
      make_changeset("redis", {"/usr/bin/redis-server", "/etc/redis/redis.conf",
                               "/usr/lib/redis/modules/bloom.so"}),
      make_changeset("mysql", {"/usr/sbin/mysqld", "/etc/mysql/my.cnf",
                               "/var/lib/mysql/ibdata1"}),
  };
  return corpus;
}

core::Praxi tiny_trained_praxi() {
  core::PraxiConfig config;
  config.learner.bits = 8;
  core::Praxi model(config);
  std::vector<const fs::Changeset*> pointers;
  for (const auto& cs : training_corpus()) pointers.push_back(&cs);
  model.train_changesets(pointers);
  return model;
}

/// Server config whose quantity screen accepts the tiny 3-file corpus
/// changesets (defaults would classify them as background noise).
ServerConfig tiny_server_config() {
  ServerConfig config;
  config.runtime.num_threads = 1;
  config.quantity.hot_bucket_records = 1;
  config.quantity.burst_min_records = 1;
  return config;
}

/// Fresh, self-deleting WAL directory.
struct TempWalDir {
  explicit TempWalDir(const std::string& tag)
      : path((stdfs::temp_directory_path() / ("praxi_wal_" + tag)).string()) {
    stdfs::remove_all(path);
    stdfs::create_directories(path);
  }
  ~TempWalDir() { stdfs::remove_all(path); }
  std::string path;
};

std::vector<ChangesetReport> make_reports(std::size_t agents,
                                          std::size_t per_agent) {
  const auto& corpus = training_corpus();
  std::vector<ChangesetReport> reports;
  std::size_t next = 0;
  for (std::size_t a = 0; a < agents; ++a) {
    for (std::size_t seq = 0; seq < per_agent; ++seq) {
      ChangesetReport report;
      report.agent_id = "vm-" + std::to_string(a);
      report.sequence = seq;
      report.changeset = corpus[next++ % corpus.size()];
      reports.push_back(std::move(report));
    }
  }
  return reports;
}

using DiscoveryKey =
    std::tuple<std::string, std::uint64_t, std::vector<std::string>>;

std::vector<DiscoveryKey> keyed(const std::vector<Discovery>& discoveries) {
  std::vector<DiscoveryKey> keys;
  keys.reserve(discoveries.size());
  for (const auto& d : discoveries) {
    keys.emplace_back(d.agent_id, d.sequence, d.applications);
  }
  std::sort(keys.begin(), keys.end());
  return keys;
}

/// The count (observation total) of a praxi_wal_* histogram series for one
/// server label; 0 when the series does not exist.
std::uint64_t histogram_count(const std::string& name,
                              const std::string& server_label) {
  for (const auto& family : obs::MetricsRegistry::global().collect()) {
    if (family.name != name) continue;
    for (const auto& series : family.series) {
      for (const auto& [key, value] : series.labels) {
        if (key == "server" && value == server_label) return series.count;
      }
    }
  }
  return 0;
}

double gauge_value(const std::string& name, const std::string& server_label) {
  for (const auto& family : obs::MetricsRegistry::global().collect()) {
    if (family.name != name) continue;
    for (const auto& series : family.series) {
      for (const auto& [key, value] : series.labels) {
        if (key == "server" && value == server_label)
          return series.gauge_value;
      }
    }
  }
  return -1.0;
}

// ------------------------------------------------- replay unit semantics --

TEST(WalReplay, SettleRecordsFoldIntoFloor) {
  std::string bytes;
  bytes += encode_wal_settle("vm-0", 0, SettleOutcome::kProcessed);
  bytes += encode_wal_settle("vm-0", 2, SettleOutcome::kProcessed);
  bytes += encode_wal_settle("vm-1", 0, SettleOutcome::kProcessed);
  bytes += encode_wal_settle("vm-0", 1, SettleOutcome::kProcessed);

  WalState state;
  const auto result = replay_wal_segment(bytes, true, 1 << 20, state);
  EXPECT_EQ(result.records, 4u);
  EXPECT_FALSE(result.torn_tail);
  EXPECT_EQ(result.valid_bytes, bytes.size());
  ASSERT_EQ(state.size(), 2u);
  EXPECT_EQ(state["vm-0"].floor, 3u);
  EXPECT_TRUE(state["vm-0"].held.empty());
  EXPECT_EQ(state["vm-1"].floor, 1u);
}

TEST(WalReplay, ReplayIsIdempotentPerRecord) {
  std::string bytes;
  for (int i = 0; i < 3; ++i) {
    bytes += encode_wal_settle("vm-0", 5, SettleOutcome::kProcessed);
  }
  WalState state;
  replay_wal_segment(bytes, true, 1 << 20, state);
  EXPECT_EQ(state["vm-0"].floor, 0u);
  EXPECT_EQ(state["vm-0"].held, (std::vector<std::uint64_t>{5}));
}

TEST(WalReplay, SnapshotRecordReplacesAccumulatedState) {
  WalState snapshot_state;
  snapshot_state["vm-7"].floor = 40;
  snapshot_state["vm-7"].held = {42, 45};

  std::string bytes;
  bytes += encode_wal_settle("vm-0", 0, SettleOutcome::kProcessed);
  bytes += encode_wal_snapshot(snapshot_state);
  bytes += encode_wal_settle("vm-7", 40, SettleOutcome::kProcessed);

  WalState state;
  const auto result = replay_wal_segment(bytes, true, 1 << 20, state);
  EXPECT_EQ(result.records, 3u);
  ASSERT_EQ(state.size(), 1u);  // vm-0 superseded by the snapshot
  EXPECT_EQ(state["vm-7"].floor, 41u);
  EXPECT_EQ(state["vm-7"].held, (std::vector<std::uint64_t>{42, 45}));
}

TEST(WalReplay, TornTailTruncatesOnlyTheLastSegment) {
  std::string bytes;
  bytes += encode_wal_settle("vm-0", 0, SettleOutcome::kProcessed);
  const std::size_t first_len = bytes.size();
  bytes += encode_wal_settle("vm-0", 1, SettleOutcome::kProcessed);

  for (std::size_t cut = first_len + 1; cut < bytes.size(); ++cut) {
    WalState state;
    const auto result =
        replay_wal_segment(bytes.substr(0, cut), true, 1 << 20, state);
    EXPECT_TRUE(result.torn_tail) << "cut=" << cut;
    EXPECT_EQ(result.records, 1u) << "cut=" << cut;
    EXPECT_EQ(result.valid_bytes, first_len) << "cut=" << cut;
    EXPECT_EQ(state["vm-0"].floor, 1u) << "cut=" << cut;

    WalState mid_state;
    EXPECT_THROW(replay_wal_segment(bytes.substr(0, cut), false, 1 << 20,
                                    mid_state),
                 SerializeError)
        << "cut=" << cut;
  }
}

TEST(WalReplay, MidSegmentCorruptionIsHardErrorWithOffset) {
  const std::string first = encode_wal_settle("vm-0", 0,
                                              SettleOutcome::kProcessed);
  std::string bytes = first;
  bytes += encode_wal_settle("vm-0", 1, SettleOutcome::kProcessed);

  // Flip one payload byte of the SECOND record: its bytes are all present,
  // so even as the last segment this is corruption, not a torn tail — and
  // the error carries the record's byte offset.
  std::string corrupt = bytes;
  corrupt[first.size() + kSnapshotHeaderBytes + 2] ^= 0x01;
  WalState state;
  try {
    replay_wal_segment(corrupt, true, 1 << 20, state);
    FAIL() << "corruption must throw";
  } catch (const SerializeError& e) {
    EXPECT_EQ(e.offset(), first.size());
  }
}

TEST(WalReplay, HostileLengthFieldRejectedBeforeAllocation) {
  std::string record = encode_wal_settle("vm-0", 0, SettleOutcome::kProcessed);
  // Claim a gigantic payload. The bound check must fire even on the last
  // segment (an append can shorten a record, never inflate its length).
  const std::uint64_t huge = 1ull << 60;
  std::memcpy(record.data() + 8, &huge, sizeof(huge));
  WalState state;
  EXPECT_THROW(replay_wal_segment(record, true, 1 << 20, state),
               SerializeError);
  EXPECT_THROW(replay_wal_segment(record, false, 1 << 20, state),
               SerializeError);
}

TEST(WalReplay, UnknownTypeOutcomeAndBadMagicRejected) {
  WalState state;

  BinaryWriter unknown_type;
  unknown_type.put<std::uint8_t>(9);
  const std::string bad_type = seal_snapshot(kWalRecordMagic,
                                             kWalRecordVersion,
                                             unknown_type.bytes());
  EXPECT_THROW(replay_wal_segment(bad_type, true, 1 << 20, state),
               SerializeError);

  std::string bad_outcome =
      encode_wal_settle("vm-0", 0, SettleOutcome::kProcessed);
  // Outcome byte is last; re-seal so only the decoder (not the CRC) trips.
  std::string payload(bad_outcome.substr(kSnapshotHeaderBytes));
  payload.back() = '\x7f';
  EXPECT_THROW(
      replay_wal_segment(
          seal_snapshot(kWalRecordMagic, kWalRecordVersion, payload), true,
          1 << 20, state),
      SerializeError);

  std::string bad_magic =
      encode_wal_settle("vm-0", 0, SettleOutcome::kProcessed);
  bad_magic[0] = static_cast<char>(bad_magic[0] ^ 0xff);
  EXPECT_THROW(replay_wal_segment(bad_magic, true, 1 << 20, state),
               SerializeError);

  // Version skew: structurally sound, unsupported version => hard error.
  const std::string future = seal_snapshot(
      kWalRecordMagic, kWalRecordVersion + 1,
      bad_outcome.substr(kSnapshotHeaderBytes));
  EXPECT_THROW(replay_wal_segment(future, true, 1 << 20, state),
               SerializeError);
}

TEST(WalReplay, MalformedSnapshotRecordsRejected) {
  WalState state;

  // Held set not ascending above the floor.
  BinaryWriter descending;
  descending.put<std::uint8_t>(2);  // snapshot
  descending.put<std::uint32_t>(1);
  descending.put_string("vm-0");
  descending.put<std::uint64_t>(10);  // floor
  descending.put_vector(std::vector<std::uint64_t>{12, 11});
  EXPECT_THROW(replay_wal_segment(
                   seal_snapshot(kWalRecordMagic, kWalRecordVersion,
                                 descending.bytes()),
                   true, 1 << 20, state),
               SerializeError);

  // Hostile agent count.
  BinaryWriter hostile;
  hostile.put<std::uint8_t>(2);
  hostile.put<std::uint32_t>(0xffffffffu);
  EXPECT_THROW(replay_wal_segment(
                   seal_snapshot(kWalRecordMagic, kWalRecordVersion,
                                 hostile.bytes()),
                   true, 1 << 20, state),
               SerializeError);
}

// ------------------------------------------------------ WriteAheadLog IO --

TEST(WriteAheadLogTest, AppendCommitReplayRoundTrip) {
  TempWalDir dir("roundtrip");
  {
    WalConfig config;
    config.dir = dir.path;
    config.server_label = "walu-roundtrip";
    WriteAheadLog wal(config);
    EXPECT_EQ(wal.replayed_records(), 0u);
    for (std::uint64_t seq = 0; seq < 10; ++seq) {
      wal.append("vm-0", seq, SettleOutcome::kProcessed);
    }
    wal.append("vm-1", 3, SettleOutcome::kProcessed);
    wal.commit();
  }
  WalConfig config;
  config.dir = dir.path;
  config.server_label = "walu-roundtrip2";
  WriteAheadLog wal(config);
  EXPECT_EQ(wal.replayed_records(), 11u);
  ASSERT_EQ(wal.restored().size(), 2u);
  EXPECT_EQ(wal.restored().at("vm-0").floor, 10u);
  EXPECT_TRUE(wal.restored().at("vm-0").held.empty());
  EXPECT_EQ(wal.restored().at("vm-1").floor, 0u);
  EXPECT_EQ(wal.restored().at("vm-1").held, (std::vector<std::uint64_t>{3}));
  EXPECT_GE(histogram_count("praxi_wal_replay_seconds", "walu-roundtrip2"),
            1u);
}

TEST(WriteAheadLogTest, UncommittedAppendsAreNotDurable) {
  TempWalDir dir("uncommitted");
  {
    WalConfig config;
    config.dir = dir.path;
    WriteAheadLog wal(config);
    wal.append("vm-0", 0, SettleOutcome::kProcessed);
    wal.commit();
    wal.append("vm-0", 1, SettleOutcome::kProcessed);
    // no commit — destructor must not settle the pending record
  }
  WalConfig config;
  config.dir = dir.path;
  WriteAheadLog wal(config);
  EXPECT_EQ(wal.replayed_records(), 1u);
  EXPECT_EQ(wal.restored().at("vm-0").floor, 1u);
}

TEST(WriteAheadLogTest, CompactionFoldsStateAndDeletesOldSegments) {
  TempWalDir dir("compact");
  WalConfig config;
  config.dir = dir.path;
  config.server_label = "walu-compact";
  {
    WriteAheadLog wal(config);
    for (std::uint64_t seq = 0; seq < 50; ++seq) {
      wal.append("vm-0", seq, SettleOutcome::kProcessed);
    }
    wal.commit();
    WalState state;
    state["vm-0"].floor = 50;
    state["vm-9"].floor = 7;
    state["vm-9"].held = {9, 12};
    wal.compact(state);
    EXPECT_EQ(wal.segment_count(), 1u);
    EXPECT_GT(wal.live_bytes(), 0u);
    // The log stays appendable after rotation.
    wal.append("vm-9", 7, SettleOutcome::kProcessed);
    wal.append("vm-9", 8, SettleOutcome::kProcessed);
    wal.commit();
  }
  WriteAheadLog wal(config);
  EXPECT_EQ(wal.restored().at("vm-0").floor, 50u);
  EXPECT_EQ(wal.restored().at("vm-9").floor, 10u);  // 7,8 settled reach 9
  EXPECT_EQ(wal.restored().at("vm-9").held, (std::vector<std::uint64_t>{12}));
}

TEST(WriteAheadLogTest, CrashBetweenSnapshotPublishAndDeleteIsHarmless) {
  TempWalDir dir("compact_crash");
  WalConfig config;
  config.dir = dir.path;
  {
    WriteAheadLog wal(config);
    wal.append("vm-0", 0, SettleOutcome::kProcessed);
    wal.commit();
  }
  // Simulate the crash window: the snapshot segment was published but the
  // old segment was never deleted. Replay must apply the old segment, then
  // let the snapshot REPLACE its state.
  WalState state;
  state["vm-5"].floor = 99;
  write_file_atomic(dir.path + "/wal-00000002.seg", encode_wal_snapshot(state));

  WriteAheadLog wal(config);
  ASSERT_EQ(wal.restored().size(), 1u);
  EXPECT_EQ(wal.restored().at("vm-5").floor, 99u);
}

TEST(WriteAheadLogTest, TornTailInNonLastSegmentIsFatal) {
  TempWalDir dir("midtorn");
  WalConfig config;
  config.dir = dir.path;
  {
    WriteAheadLog wal(config);
    wal.append("vm-0", 0, SettleOutcome::kProcessed);
    wal.commit();
  }
  // Truncate segment 1 mid-record, then add a later segment: the tear is
  // no longer at the log's end, so replay must refuse.
  const std::string seg1 = dir.path + "/wal-00000001.seg";
  const auto size = stdfs::file_size(seg1);
  stdfs::resize_file(seg1, size - 3);
  write_file_atomic(dir.path + "/wal-00000002.seg",
                    encode_wal_settle("vm-0", 1, SettleOutcome::kProcessed));
  EXPECT_THROW(WriteAheadLog{config}, SerializeError);
}

TEST(WriteAheadLogTest, ReplaysHundredThousandRecordLogBeforeOpening) {
  TempWalDir dir("large");
  WalConfig config;
  config.dir = dir.path;
  config.server_label = "walu-large";
  // Large enough that 100k records never trigger rotation mid-test.
  config.segment_bytes = 64u << 20;
  constexpr std::uint64_t kAgents = 10;
  constexpr std::uint64_t kPerAgent = 10000;
  {
    WriteAheadLog wal(config);
    for (std::uint64_t seq = 0; seq < kPerAgent; ++seq) {
      for (std::uint64_t a = 0; a < kAgents; ++a) {
        wal.append("vm-" + std::to_string(a), seq, SettleOutcome::kProcessed);
      }
      if (seq % 1000 == 999) wal.commit();
    }
    wal.commit();
  }
  config.server_label = "walu-large2";
  // Constructing the log IS the replay — by the time any listener could
  // open, restored() is complete and praxi_wal_replay_seconds has the
  // measurement.
  WriteAheadLog wal(config);
  EXPECT_EQ(wal.replayed_records(), kAgents * kPerAgent);
  ASSERT_EQ(wal.restored().size(), kAgents);
  for (const auto& [agent, tracker] : wal.restored()) {
    EXPECT_EQ(tracker.floor, kPerAgent) << agent;
    EXPECT_TRUE(tracker.held.empty()) << agent;
  }
  EXPECT_EQ(histogram_count("praxi_wal_replay_seconds", "walu-large2"), 1u);
}

// ------------------------------------------------------- server + WAL -----

class WalServerTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() { model_ = new core::Praxi(tiny_trained_praxi()); }
  static void TearDownTestSuite() { delete model_; }

  static std::unique_ptr<DiscoveryServer> make_server(
      const std::string& wal_dir, std::size_t wal_segment_bytes = 4u << 20) {
    ServerConfig config = tiny_server_config();
    config.wal_dir = wal_dir;
    config.wal_segment_bytes = wal_segment_bytes;
    return std::make_unique<DiscoveryServer>(*model_, config);
  }

  static core::Praxi* model_;
};

core::Praxi* WalServerTest::model_ = nullptr;

TEST_F(WalServerTest, RestartRemembersEverySettledReport) {
  TempWalDir dir("restart");
  const auto reports = make_reports(3, 4);

  std::vector<DiscoveryKey> first_run;
  {
    auto server = make_server(dir.path);
    MessageBus bus;
    for (const auto& r : reports) bus.send(r.to_wire());
    first_run = keyed(server->process(bus));
    EXPECT_EQ(server->processed(), reports.size());
    EXPECT_EQ(first_run.size(), reports.size());
  }

  // The restarted server sees every report again (agents resend after the
  // "crash") and must re-learn exactly nothing.
  auto server = make_server(dir.path);
  MessageBus bus;
  for (const auto& r : reports) bus.send(r.to_wire());
  const auto rerun = server->process(bus);
  EXPECT_TRUE(rerun.empty());
  EXPECT_EQ(server->processed(), 0u);
  EXPECT_EQ(server->duplicates(), reports.size());
}

TEST_F(WalServerTest, KillAtEveryByteOffsetConvergesToCleanRun) {
  const auto reports = make_reports(2, 6);

  // Clean run: the reference discoveries, plus the full WAL bytes with the
  // byte boundary after each settled record (one report per process() call
  // => one record per boundary, in report order).
  TempWalDir clean_dir("kill_clean");
  std::vector<DiscoveryKey> reference;  // discovery of reports[i], in order
  std::string wal_bytes;
  std::vector<std::size_t> boundaries;  // WAL size after reports[0..i]
  {
    auto server = make_server(clean_dir.path);
    MessageBus bus;
    for (const auto& r : reports) {
      bus.send(r.to_wire());
      const auto discoveries = server->process(bus);
      ASSERT_EQ(discoveries.size(), 1u);
      reference.emplace_back(discoveries[0].agent_id, discoveries[0].sequence,
                             discoveries[0].applications);
      boundaries.push_back(server->wal()->live_bytes());
    }
    wal_bytes = read_file(server->wal()->live_segment_path());
    ASSERT_EQ(wal_bytes.size(), boundaries.back());
  }

  // Kill the server at EVERY byte offset of the log, restart on the
  // truncated prefix, resend everything.
  TempWalDir dir("kill_offsets");
  for (std::size_t cut = 0; cut <= wal_bytes.size(); ++cut) {
    SCOPED_TRACE("cut=" + std::to_string(cut));
    stdfs::remove_all(dir.path);
    stdfs::create_directories(dir.path);
    {
      std::ofstream out(dir.path + "/wal-00000001.seg", std::ios::binary);
      out.write(wal_bytes.data(), static_cast<std::streamsize>(cut));
    }
    // Records fully contained in the prefix — exactly those reports are
    // already settled; the torn remainder must be forgotten.
    const std::size_t settled_before =
        static_cast<std::size_t>(std::count_if(
            boundaries.begin(), boundaries.end(),
            [cut](std::size_t b) { return b <= cut; }));

    auto server = make_server(dir.path);
    ASSERT_EQ(server->wal()->replayed_records(), settled_before);

    MessageBus bus;
    for (const auto& r : reports) bus.send(r.to_wire());
    const auto discoveries = keyed(server->process(bus));

    // Exactly-once across the crash: every report not yet durable is
    // processed now, every durable one is deduplicated, and the combined
    // discoveries are bit-identical to the uninterrupted run.
    EXPECT_EQ(server->processed(), reports.size() - settled_before);
    EXPECT_EQ(server->duplicates(), settled_before);
    std::vector<DiscoveryKey> expected(reference.begin() +
                                           static_cast<std::ptrdiff_t>(
                                               settled_before),
                                       reference.end());
    std::sort(expected.begin(), expected.end());
    EXPECT_EQ(discoveries, expected);

    // The repaired log must itself replay cleanly, with everything settled.
    auto reborn = make_server(dir.path);
    for (const auto& [agent, tracker] : reborn->wal()->restored()) {
      EXPECT_EQ(tracker.floor, 6u) << agent;
      EXPECT_TRUE(tracker.held.empty()) << agent;
    }
  }
}

TEST_F(WalServerTest, CrashBeforeCommitLeavesNoAcceptanceTrace) {
  TempWalDir dir("crash_window");
  auto server = make_server(dir.path);
  MessageBus bus;
  const auto reports = make_reports(1, 1);
  bus.send(reports[0].to_wire());

  testhooks::simulate_crash_before_commit = true;
  EXPECT_THROW(server->process(bus), std::runtime_error);
  testhooks::simulate_crash_before_commit = false;

  // The bug this pins (accept-before-commit): acceptance used to be
  // recorded in phase 1, so the failed report's resend was dropped as a
  // "duplicate" forever. Settle-time acceptance must leave no trace.
  EXPECT_EQ(server->processed(), 0u);
  EXPECT_FALSE(bus.acknowledged(reports[0].agent_id, reports[0].sequence));

  // The at-least-once wire redelivers (the drained frame was never acked);
  // the retry must process exactly once.
  bus.send(reports[0].to_wire());
  const auto discoveries = server->process(bus);
  EXPECT_EQ(discoveries.size(), 1u);
  EXPECT_EQ(server->processed(), 1u);
  EXPECT_EQ(server->duplicates(), 0u);
  EXPECT_TRUE(bus.acknowledged(reports[0].agent_id, reports[0].sequence));
}

TEST_F(WalServerTest, CompactionKeepsDedupExactAcrossRestart) {
  TempWalDir dir("compaction");
  const auto reports = make_reports(2, 8);
  {
    // A segment bound this small forces a compaction after every batch.
    auto server = make_server(dir.path, 64);
    MessageBus bus;
    for (const auto& r : reports) {
      bus.send(r.to_wire());
      server->process(bus);
    }
    EXPECT_EQ(server->processed(), reports.size());
    EXPECT_EQ(server->wal()->segment_count(), 1u);
    EXPECT_GE(obs::MetricsRegistry::global().counter_value(
                  "praxi_wal_compactions_total",
                  {{"server", server->server_label()}}),
              1u);
  }
  auto server = make_server(dir.path, 64);
  MessageBus bus;
  for (const auto& r : reports) bus.send(r.to_wire());
  server->process(bus);
  EXPECT_EQ(server->processed(), 0u);
  EXPECT_EQ(server->duplicates(), reports.size());
}

TEST_F(WalServerTest, OutOfOrderHeldSequencesSurviveRestart) {
  TempWalDir dir("held");
  const auto reports = make_reports(1, 6);  // sequences 0..5
  {
    auto server = make_server(dir.path);
    MessageBus bus;
    for (const std::size_t i : {0u, 2u, 5u}) bus.send(reports[i].to_wire());
    server->process(bus);
    EXPECT_EQ(server->processed(), 3u);
  }
  auto server = make_server(dir.path);
  MessageBus bus;
  for (const std::size_t i : {0u, 2u, 5u}) bus.send(reports[i].to_wire());
  server->process(bus);
  EXPECT_EQ(server->processed(), 0u);
  EXPECT_EQ(server->duplicates(), 3u);
  // The gaps are still open — and only the gaps.
  for (const std::size_t i : {1u, 3u, 4u}) bus.send(reports[i].to_wire());
  server->process(bus);
  EXPECT_EQ(server->processed(), 3u);
  EXPECT_EQ(server->duplicates(), 3u);
}

TEST_F(WalServerTest, ServeWithoutWalDirWritesNothing) {
  ServerConfig config = tiny_server_config();
  DiscoveryServer server(*model_, config);
  EXPECT_EQ(server.wal(), nullptr);
  MessageBus bus;
  const auto reports = make_reports(1, 2);
  for (const auto& r : reports) bus.send(r.to_wire());
  server.process(bus);
  EXPECT_EQ(server.processed(), 2u);
}

// ------------------------------------------------ idle-agent eviction -----

TEST_F(WalServerTest, IdleAgentsEvictToFloorsWithoutForgettingDedup) {
  ServerConfig config = tiny_server_config();
  config.max_resident_agents = 2;
  DiscoveryServer server(*model_, config);
  MessageBus bus;

  auto send_and_process = [&](std::size_t agent, std::uint64_t seq) {
    ChangesetReport report;
    report.agent_id = "vm-" + std::to_string(agent);
    report.sequence = seq;
    report.changeset = training_corpus()[agent % training_corpus().size()];
    bus.send(report.to_wire());
    server.process(bus);
  };

  for (std::size_t agent = 0; agent < 4; ++agent) send_and_process(agent, 0);
  // Agents idle in the last batch fold down to their floors.
  EXPECT_LE(server.resident_agents(), 2u);
  EXPECT_EQ(gauge_value("praxi_server_agents", server.server_label()),
            static_cast<double>(server.resident_agents()));

  // An evicted agent's dedup floor is intact: its old report is still a
  // duplicate, its next one is fresh.
  send_and_process(0, 0);
  EXPECT_EQ(server.duplicates(), 1u);
  send_and_process(0, 1);
  EXPECT_EQ(server.processed(), 5u);
  EXPECT_EQ(server.duplicates(), 1u);
}

TEST_F(WalServerTest, MalformedFrameFromEvictedAgentKeepsItsFloor) {
  // A corrupt frame is charged to the agent it names through the same
  // restore path as a valid one, so the agent's evicted floor comes back
  // with it instead of being shadowed by a fresh tracker.
  ServerConfig config = tiny_server_config();
  config.max_resident_agents = 1;
  DiscoveryServer server(*model_, config);
  MessageBus bus;

  std::vector<std::string> wires;
  for (std::size_t agent = 0; agent < 2; ++agent) {
    ChangesetReport report;
    report.agent_id = "vm-" + std::to_string(agent);
    report.sequence = 0;
    report.changeset = training_corpus()[agent];
    wires.push_back(report.to_wire());
    bus.send(wires.back());
    server.process(bus);
  }
  ASSERT_EQ(server.resident_agents(), 1u) << "vm-0 folded to its floor";

  std::string corrupt = wires[0];
  corrupt.back() = static_cast<char>(corrupt.back() ^ 0x01);
  bus.send(corrupt);
  bus.send(wires[0]);  // vm-0's settled report, redelivered
  server.process(bus);

  const AgentIngestStats totals = server.totals();
  EXPECT_EQ(totals.malformed, 1u);
  EXPECT_EQ(totals.duplicate, 1u);
  EXPECT_EQ(totals.processed, 2u);
}

TEST_F(WalServerTest, EvictedFloorsAreIncludedInCompactionSnapshots) {
  TempWalDir dir("evict_compact");
  {
    ServerConfig config = tiny_server_config();
    config.wal_dir = dir.path;
    config.wal_segment_bytes = 64;  // compact after every batch
    config.max_resident_agents = 1;
    DiscoveryServer server(*model_, config);
    MessageBus bus;
    for (std::size_t agent = 0; agent < 3; ++agent) {
      ChangesetReport report;
      report.agent_id = "vm-" + std::to_string(agent);
      report.sequence = 0;
      report.changeset = training_corpus()[0];
      bus.send(report.to_wire());
      server.process(bus);
    }
    EXPECT_LE(server.resident_agents(), 2u);
  }
  // Even agents whose trackers were evicted before the compaction must
  // come back deduplicated after a restart.
  ServerConfig config = tiny_server_config();
  config.wal_dir = dir.path;
  DiscoveryServer server(*model_, config);
  MessageBus bus;
  for (std::size_t agent = 0; agent < 3; ++agent) {
    ChangesetReport report;
    report.agent_id = "vm-" + std::to_string(agent);
    report.sequence = 0;
    report.changeset = training_corpus()[0];
    bus.send(report.to_wire());
  }
  server.process(bus);
  EXPECT_EQ(server.processed(), 0u);
  EXPECT_EQ(server.duplicates(), 3u);
}

}  // namespace
}  // namespace praxi::service
