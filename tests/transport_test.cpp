// Tests for the transport abstraction underneath the discovery service:
// the frame codec and its streaming decoder, the exactly-once
// SequenceTracker, report identity peeking, MessageBus ack bookkeeping,
// and — the heart of it — a deterministic fault matrix proving that retry
// plus server-side dedup turns a misbehaving wire (drops, duplicates,
// reordering, truncation, corruption) into exactly-once processing: zero
// acknowledged reports lost, zero double-counted, discoveries identical
// to a clean run.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "common/serialize.hpp"
#include "eval/harness.hpp"
#include "net/faulty_transport.hpp"
#include "net/frame.hpp"
#include "pkg/dataset.hpp"
#include "service/server.hpp"
#include "service/transport.hpp"

namespace praxi::net {
namespace {

using service::ChangesetReport;
using service::MessageBus;
using service::SequenceTracker;

// ---------------------------------------------------------------- frames --

TEST(FrameCodec, RoundTripsEveryType) {
  for (const FrameType type : {FrameType::kHello, FrameType::kData,
                               FrameType::kAck, FrameType::kBusy}) {
    Frame frame;
    frame.type = type;
    frame.sequence = 0xDEADBEEFCAFEULL;
    frame.payload = "payload-bytes\0with-nul";
    const std::string wire = encode_frame(frame);
    EXPECT_EQ(wire.size(), sizeof(std::uint32_t) + kFrameLengthOverhead +
                               frame.payload.size());

    FrameDecoder decoder;
    decoder.feed(wire);
    const auto decoded = decoder.next();
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(decoded->type, type);
    EXPECT_EQ(decoded->sequence, frame.sequence);
    EXPECT_EQ(decoded->payload, frame.payload);
    EXPECT_FALSE(decoder.next().has_value());
    EXPECT_EQ(decoder.buffered(), 0u);
  }
}

TEST(FrameCodec, EmptyPayloadFrame) {
  FrameDecoder decoder;
  decoder.feed(encode_frame(FrameType::kAck, 7));
  const auto decoded = decoder.next();
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->type, FrameType::kAck);
  EXPECT_EQ(decoded->sequence, 7u);
  EXPECT_TRUE(decoded->payload.empty());
}

TEST(FrameCodec, ReassemblesByteByByte) {
  // The worst chunking TCP can produce: one byte per read. The decoder
  // must hold partial frames silently — partial input is normal, never an
  // error (docs/API.md data-plane contract).
  const std::string wire = encode_frame(FrameType::kData, 42, "hello praxi") +
                           encode_frame(FrameType::kAck, 43);
  FrameDecoder decoder;
  std::vector<Frame> frames;
  for (const char byte : wire) {
    decoder.feed(std::string_view(&byte, 1));
    while (auto frame = decoder.next()) frames.push_back(std::move(*frame));
  }
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_EQ(frames[0].payload, "hello praxi");
  EXPECT_EQ(frames[1].sequence, 43u);
  EXPECT_EQ(decoder.buffered(), 0u);
}

TEST(FrameCodec, DecodesManyFramesFromOneFeed) {
  std::string wire;
  for (std::uint64_t i = 0; i < 100; ++i) {
    wire += encode_frame(FrameType::kData, i, std::string(i % 7, 'x'));
  }
  FrameDecoder decoder;
  decoder.feed(wire);
  for (std::uint64_t i = 0; i < 100; ++i) {
    const auto frame = decoder.next();
    ASSERT_TRUE(frame.has_value()) << "frame " << i;
    EXPECT_EQ(frame->sequence, i);
    EXPECT_EQ(frame->payload.size(), i % 7);
  }
  EXPECT_FALSE(decoder.next().has_value());
}

TEST(FrameCodec, PartialFrameIsHeldNotThrown) {
  const std::string wire = encode_frame(FrameType::kData, 1, "full payload");
  for (std::size_t cut = 0; cut < wire.size(); ++cut) {
    FrameDecoder decoder;
    decoder.feed(std::string_view(wire).substr(0, cut));
    EXPECT_FALSE(decoder.next().has_value()) << "cut at " << cut;
    decoder.feed(std::string_view(wire).substr(cut));
    EXPECT_TRUE(decoder.next().has_value()) << "cut at " << cut;
  }
}

TEST(FrameCodec, RejectsOversizeLengthBeforeBuffering) {
  // A hostile length field must fail fast, not make us buffer 4 GiB.
  FrameDecoder decoder(1024);
  const std::string wire = encode_frame(FrameType::kData, 1,
                                        std::string(2048, 'x'));
  decoder.feed(wire);
  EXPECT_THROW(decoder.next(), SerializeError);
}

TEST(FrameCodec, RejectsUndersizeLength) {
  // length must cover at least type + sequence (kFrameLengthOverhead).
  std::string wire = encode_frame(FrameType::kData, 1, "x");
  wire[0] = 3;  // u32 little-endian length smaller than the overhead
  wire[1] = wire[2] = wire[3] = 0;
  FrameDecoder decoder;
  decoder.feed(wire);
  EXPECT_THROW(decoder.next(), SerializeError);
}

TEST(FrameCodec, RejectsUnknownFrameType) {
  std::string wire = encode_frame(FrameType::kData, 1, "x");
  wire[4] = 99;  // type byte
  FrameDecoder decoder;
  decoder.feed(wire);
  EXPECT_THROW(decoder.next(), SerializeError);
}

TEST(FrameCodec, ResetDropsPartialFrame) {
  const std::string wire = encode_frame(FrameType::kData, 5, "payload");
  FrameDecoder decoder;
  decoder.feed(std::string_view(wire).substr(0, wire.size() - 2));
  EXPECT_FALSE(decoder.next().has_value());
  EXPECT_GT(decoder.buffered(), 0u);
  decoder.reset();
  EXPECT_EQ(decoder.buffered(), 0u);
  // After a reset (reconnect), a whole resent frame decodes cleanly.
  decoder.feed(wire);
  ASSERT_TRUE(decoder.next().has_value());
}

TEST(FrameCodec, RefusesPayloadOverflowingLengthField) {
  Frame frame;
  frame.payload.resize(8);  // fine
  EXPECT_NO_THROW(encode_frame(frame));
}

// ------------------------------------------------------- sequence tracker --

TEST(SequenceTrackerTest, AcceptsEachSequenceExactlyOnce) {
  SequenceTracker tracker;
  for (std::uint64_t seq = 0; seq < 100; ++seq) {
    EXPECT_TRUE(tracker.accept(seq));
    EXPECT_FALSE(tracker.accept(seq)) << "redelivery of " << seq;
  }
  EXPECT_EQ(tracker.floor(), 100u);
  EXPECT_EQ(tracker.held(), 0u);
}

TEST(SequenceTrackerTest, OutOfOrderCompactsToFloor) {
  SequenceTracker tracker;
  EXPECT_TRUE(tracker.accept(2));
  EXPECT_TRUE(tracker.accept(0));
  EXPECT_EQ(tracker.held(), 1u);  // 2 held, [0,1) compacted
  EXPECT_TRUE(tracker.accept(1));
  EXPECT_EQ(tracker.floor(), 3u);
  EXPECT_EQ(tracker.held(), 0u);
  EXPECT_FALSE(tracker.accept(0));
  EXPECT_FALSE(tracker.accept(2));
}

TEST(SequenceTrackerTest, RejectsBelowFloorForever) {
  SequenceTracker tracker;
  for (std::uint64_t seq = 0; seq < 10; ++seq) tracker.accept(seq);
  for (std::uint64_t seq = 0; seq < 10; ++seq) {
    EXPECT_FALSE(tracker.accept(seq));
  }
  EXPECT_TRUE(tracker.accept(10));
}

TEST(SequenceTrackerTest, HeldSetCapRejectsWithoutPoisoning) {
  using Admit = SequenceTracker::Admit;
  SequenceTracker tracker(/*max_held=*/2);
  EXPECT_EQ(tracker.admit(5), Admit::kAccept);
  EXPECT_EQ(tracker.admit(7), Admit::kAccept);
  EXPECT_EQ(tracker.held(), 2u);

  // At the cap a further out-of-order sequence is rejected — and crucially
  // NOT recorded, so it is a distinct verdict from kDuplicate and its later
  // redelivery (after the window drains) can still be accepted.
  EXPECT_EQ(tracker.admit(9), Admit::kReject);
  EXPECT_EQ(tracker.held(), 2u);
  EXPECT_EQ(tracker.admit(9), Admit::kReject);

  // The floor sequence is always admissible: it shrinks (never grows) the
  // held window, so a full window can always drain.
  EXPECT_EQ(tracker.admit(0), Admit::kAccept);
  EXPECT_EQ(tracker.floor(), 1u);
  for (std::uint64_t seq = 1; seq <= 4; ++seq) {
    EXPECT_EQ(tracker.admit(seq), Admit::kAccept) << seq;
  }
  // 0..5 and 7 settled: floor folded through 5, one slot free again.
  EXPECT_EQ(tracker.floor(), 6u);
  EXPECT_EQ(tracker.held(), 1u);
  EXPECT_EQ(tracker.admit(9), Admit::kAccept);
  EXPECT_EQ(tracker.admit(5), Admit::kDuplicate);  // below floor: duplicate
}

TEST(SequenceTrackerTest, PreviewScreensWithoutRecording) {
  using Admit = SequenceTracker::Admit;
  SequenceTracker tracker(/*max_held=*/1);
  EXPECT_EQ(tracker.preview(3), Admit::kAccept);
  EXPECT_EQ(tracker.held(), 0u);  // preview must not mutate
  EXPECT_EQ(tracker.admit(3), Admit::kAccept);
  EXPECT_EQ(tracker.preview(3), Admit::kDuplicate);
  EXPECT_EQ(tracker.preview(4), Admit::kReject);
  EXPECT_EQ(tracker.preview(0), Admit::kAccept);  // floor always admissible
}

TEST(SequenceTrackerTest, RestoreRoundTripsFloorAndHeld) {
  using Admit = SequenceTracker::Admit;
  SequenceTracker original(/*max_held=*/4);
  for (const std::uint64_t seq : {0ull, 1ull, 3ull, 6ull}) original.admit(seq);
  EXPECT_EQ(original.floor(), 2u);

  SequenceTracker restored(original.floor(), original.held_sequences(),
                           /*max_held=*/4);
  EXPECT_EQ(restored.floor(), 2u);
  EXPECT_EQ(restored.held_sequences(), original.held_sequences());
  EXPECT_EQ(restored.admit(3), Admit::kDuplicate);
  EXPECT_EQ(restored.admit(6), Admit::kDuplicate);
  EXPECT_EQ(restored.admit(2), Admit::kAccept);  // folds through held 3
  EXPECT_EQ(restored.floor(), 4u);

  // A held set that already contains the floor compacts on restore, and
  // entries below the floor are ignored rather than trusted.
  SequenceTracker folded(2, {1, 2, 4}, 0);
  EXPECT_EQ(folded.floor(), 3u);
  EXPECT_EQ(folded.held_sequences(), (std::vector<std::uint64_t>{4}));
}

// --------------------------------------------------------- peek_identity --

fs::Changeset tiny_changeset() {
  fs::Changeset cs;
  cs.set_open_time(10);
  cs.add(fs::ChangeRecord{"/usr/bin/tool", 0755, fs::ChangeKind::kCreate, 11});
  cs.close(20);
  return cs;
}

TEST(PeekIdentity, ReadsAgentAndSequence) {
  ChangesetReport report;
  report.agent_id = "vm-007";
  report.sequence = 1234;
  report.changeset = tiny_changeset();
  const auto identity = ChangesetReport::peek_identity(report.to_wire());
  ASSERT_TRUE(identity.has_value());
  EXPECT_EQ(identity->agent_id, "vm-007");
  EXPECT_EQ(identity->sequence, 1234u);
}

TEST(PeekIdentity, SurvivesTailTruncationButNotHeadDamage) {
  ChangesetReport report;
  report.agent_id = "vm-1";
  report.sequence = 9;
  report.changeset = tiny_changeset();
  const std::string wire = report.to_wire();

  // Identity lives near the head; cutting the tail keeps it readable
  // (that is the whole point of best-effort attribution).
  const auto peeked = ChangesetReport::peek_identity(
      std::string_view(wire).substr(0, wire.size() - 4));
  ASSERT_TRUE(peeked.has_value());
  EXPECT_EQ(peeked->agent_id, "vm-1");
  EXPECT_EQ(peeked->sequence, 9u);

  EXPECT_FALSE(ChangesetReport::peek_identity("garbage").has_value());
  EXPECT_FALSE(ChangesetReport::peek_identity("").has_value());
  EXPECT_FALSE(
      ChangesetReport::peek_identity(std::string_view(wire).substr(0, 6))
          .has_value());
}

// ------------------------------------------------- PRPT v1/v2 wire forms --

fs::Changeset labeled_changeset() {
  fs::Changeset cs;
  cs.set_open_time(-5);
  cs.add(fs::ChangeRecord{"/usr/bin/tool", 0755, fs::ChangeKind::kCreate, 11});
  cs.add(fs::ChangeRecord{"/etc/tool.conf", 0644, fs::ChangeKind::kModify, 12});
  cs.add(fs::ChangeRecord{"/tmp/x", 0600, fs::ChangeKind::kDelete, 9000});
  cs.add(fs::ChangeRecord{"", 0, fs::ChangeKind::kCreate, 9001});
  cs.add_label("tool");
  cs.add_label("tool-extras");
  cs.close(9999);
  return cs;
}

TEST(ReportWire, V1AndV2FramesDecodeToEqualReports) {
  ChangesetReport report;
  report.agent_id = "vm-compat";
  report.sequence = 77;
  report.changeset = labeled_changeset();
  const std::string v1 = report.to_wire_v1();
  const std::string v2 = report.to_wire();

  // v2 drops the nested envelope: its u32 length prefix and 20-byte header.
  EXPECT_EQ(v1.size() - v2.size(), sizeof(std::uint32_t) + kSnapshotHeaderBytes);

  for (const std::string* wire : {&v1, &v2}) {
    const ChangesetReport decoded = ChangesetReport::from_wire(*wire);
    EXPECT_EQ(decoded.agent_id, report.agent_id);
    EXPECT_EQ(decoded.sequence, report.sequence);
    EXPECT_EQ(decoded.changeset, report.changeset);

    const service::ReportView view = ChangesetReport::view_wire(*wire);
    EXPECT_EQ(view.agent_id, report.agent_id);
    EXPECT_EQ(view.sequence, report.sequence);
    EXPECT_EQ(fs::Changeset::from_view(view.changeset), report.changeset);
    // Zero-copy: every path views the frame's own bytes.
    for (const auto& rec : view.changeset.records) {
      EXPECT_GE(rec.path.data(), wire->data());
      EXPECT_LE(rec.path.data() + rec.path.size(),
                wire->data() + wire->size());
    }

    const auto identity = ChangesetReport::peek_identity(*wire);
    ASSERT_TRUE(identity.has_value());
    EXPECT_EQ(identity->agent_id, report.agent_id);
    EXPECT_EQ(identity->sequence, report.sequence);
  }
}

TEST(ReportWire, UnclosedAndEmptyChangesetsRoundTripInBothVersions) {
  ChangesetReport report;
  report.agent_id = "vm-open";
  report.changeset.add(
      fs::ChangeRecord{"/var/log/a", 0644, fs::ChangeKind::kModify, 3});
  report.changeset.add(
      fs::ChangeRecord{"/var/log/b", 0644, fs::ChangeKind::kModify, 1});
  ChangesetReport empty;
  empty.agent_id = "vm-empty";
  for (const ChangesetReport* r : {&report, &empty}) {
    EXPECT_EQ(ChangesetReport::from_wire(r->to_wire()).changeset, r->changeset);
    EXPECT_EQ(ChangesetReport::from_wire(r->to_wire_v1()).changeset,
              r->changeset);
  }
}

// ------------------------------------------------------- MessageBus acks --

std::string wire_report(const std::string& agent, std::uint64_t sequence) {
  ChangesetReport report;
  report.agent_id = agent;
  report.sequence = sequence;
  report.changeset = tiny_changeset();
  return report.to_wire();
}

TEST(MessageBusAck, TracksAcknowledgedIdentities) {
  MessageBus bus;
  const std::string a = wire_report("vm-0", 1);
  const std::string b = wire_report("vm-1", 2);
  bus.send(a);
  bus.send(b);
  bus.drain();
  EXPECT_FALSE(bus.acknowledged("vm-0", 1));
  bus.ack(a);
  EXPECT_TRUE(bus.acknowledged("vm-0", 1));
  EXPECT_FALSE(bus.acknowledged("vm-1", 2));
  bus.ack(b);
  EXPECT_TRUE(bus.acknowledged("vm-1", 2));

  const auto stats = bus.stats();
  EXPECT_EQ(stats.sent_frames, 2u);
  EXPECT_EQ(stats.delivered_frames, 2u);
  EXPECT_EQ(stats.acked_frames, 2u);
  EXPECT_EQ(stats.pending_frames, 0u);
}

// ------------------------------------------------------ faulty transport --

TEST(FaultyTransportTest, PassThroughWhenAllRatesZero) {
  MessageBus bus;
  FaultyTransport faulty(bus, FaultPlan{});
  faulty.send("alpha");
  faulty.send("beta");
  const auto drained = faulty.drain();
  ASSERT_EQ(drained.size(), 2u);
  EXPECT_EQ(drained[0], "alpha");
  EXPECT_EQ(drained[1], "beta");
  EXPECT_EQ(faulty.dropped() + faulty.duplicated() + faulty.truncated() +
                faulty.corrupted() + faulty.delayed(),
            0u);
}

TEST(FaultyTransportTest, SameSeedSameFaults) {
  FaultPlan plan;
  plan.seed = 77;
  plan.drop_rate = 0.2;
  plan.duplicate_rate = 0.2;
  plan.truncate_rate = 0.1;
  plan.corrupt_rate = 0.1;
  plan.delay_rate = 0.1;

  auto run = [&plan] {
    MessageBus bus;
    FaultyTransport faulty(bus, plan);
    for (int i = 0; i < 200; ++i) {
      faulty.send("message-" + std::to_string(i));
    }
    std::vector<std::string> delivered;
    for (int round = 0; round < 4; ++round) {
      for (auto& m : faulty.drain()) delivered.push_back(std::move(m));
    }
    return std::make_tuple(delivered, faulty.dropped(), faulty.duplicated(),
                           faulty.truncated(), faulty.corrupted(),
                           faulty.delayed());
  };
  const auto first = run();
  const auto second = run();
  EXPECT_EQ(first, second) << "a seeded fault plan must replay bit-identically";
  EXPECT_GT(std::get<1>(first) + std::get<2>(first) + std::get<3>(first) +
                std::get<4>(first) + std::get<5>(first),
            0u)
      << "the plan's rates are high enough that some fault must fire";
}

TEST(FaultyTransportTest, DelayHoldsFramesAcrossDrains) {
  MessageBus bus;
  FaultPlan plan;
  plan.seed = 3;
  plan.delay_rate = 1.0;  // every frame held
  plan.delay_drains = 2;
  FaultyTransport faulty(bus, plan);
  faulty.send("early");
  EXPECT_TRUE(faulty.drain().empty()) << "frame held for two drains";
  EXPECT_EQ(faulty.stats().pending_frames, 1u);
  faulty.send("late");
  // "early" is released only now — after any frame that passed straight
  // through in the meantime would have drained: that is the reordering.
  const auto second = faulty.drain();
  ASSERT_EQ(second.size(), 1u);
  EXPECT_EQ(second[0], "early");
  const auto third = faulty.drain();
  ASSERT_EQ(third.size(), 1u);
  EXPECT_EQ(third[0], "late");
  EXPECT_EQ(faulty.delayed(), 2u);
}

// ------------------------------------------------------------ fault matrix --

/// Trained model + labeled changesets shared by the fault-matrix cases.
class FaultMatrixTest : public ::testing::Test {
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

  struct Outcome {
    std::vector<std::tuple<std::string, std::uint64_t,
                           std::vector<std::string>>> discoveries;
    std::uint64_t processed = 0;
    std::uint64_t duplicates = 0;
  };

  /// One fleet's worth of reports: `agents` x `per_agent`, changesets
  /// cycled from the dataset so every report is a real installation window.
  static std::vector<ChangesetReport> make_reports(std::size_t agents,
                                                   std::size_t per_agent) {
    std::vector<ChangesetReport> reports;
    std::size_t next = 0;
    for (std::size_t a = 0; a < agents; ++a) {
      for (std::size_t seq = 0; seq < per_agent; ++seq) {
        ChangesetReport report;
        report.agent_id = "vm-" + std::to_string(a);
        report.sequence = seq;
        report.changeset =
            dataset_->changesets[next++ % dataset_->changesets.size()];
        reports.push_back(std::move(report));
      }
    }
    return reports;
  }

  /// Drives `reports` through `transport` into a fresh server, resending
  /// every report until the bus records its ack (the client half of the
  /// at-least-once contract), then returns sorted outcomes.
  static Outcome run_to_completion(const std::vector<ChangesetReport>& reports,
                                   MessageBus& bus,
                                   service::Transport& transport) {
    service::ServerConfig config;
    config.runtime.num_threads = 1;
    service::DiscoveryServer server(*model_, config);

    std::vector<std::string> wires;
    wires.reserve(reports.size());
    for (const auto& report : reports) wires.push_back(report.to_wire());

    Outcome outcome;
    for (int round = 0; round < 60; ++round) {
      bool all_acked = true;
      for (std::size_t i = 0; i < reports.size(); ++i) {
        if (bus.acknowledged(reports[i].agent_id, reports[i].sequence)) {
          continue;
        }
        all_acked = false;
        transport.send(wires[i]);
      }
      if (all_acked) break;
      for (auto& d : server.process(transport)) {
        outcome.discoveries.emplace_back(d.agent_id, d.sequence,
                                         std::move(d.applications));
      }
    }
    // Drain any frames still held by a delay fault.
    for (int round = 0; round < 4; ++round) {
      for (auto& d : server.process(transport)) {
        outcome.discoveries.emplace_back(d.agent_id, d.sequence,
                                         std::move(d.applications));
      }
    }
    std::sort(outcome.discoveries.begin(), outcome.discoveries.end());
    outcome.processed = server.processed();
    outcome.duplicates = server.duplicates();
    return outcome;
  }

  static pkg::Dataset* dataset_;
  static core::Praxi* model_;
};

pkg::Dataset* FaultMatrixTest::dataset_ = nullptr;
core::Praxi* FaultMatrixTest::model_ = nullptr;

TEST_F(FaultMatrixTest, LossyWiresConvergeToCleanRunExactly) {
  const auto reports = make_reports(3, 12);

  MessageBus clean_bus;
  const Outcome reference = run_to_completion(reports, clean_bus, clean_bus);
  ASSERT_EQ(reference.processed, reports.size());
  ASSERT_EQ(reference.duplicates, 0u);

  struct Case {
    const char* name;
    FaultPlan plan;
  };
  std::vector<Case> cases;
  cases.push_back({"drop", {}});
  cases.back().plan.drop_rate = 0.3;
  cases.push_back({"duplicate", {}});
  cases.back().plan.duplicate_rate = 0.3;
  cases.push_back({"reorder", {}});
  cases.back().plan.delay_rate = 0.3;
  cases.back().plan.delay_drains = 2;
  cases.push_back({"truncate", {}});
  cases.back().plan.truncate_rate = 0.2;
  cases.push_back({"combined", {}});
  cases.back().plan.drop_rate = 0.15;
  cases.back().plan.duplicate_rate = 0.15;
  cases.back().plan.truncate_rate = 0.1;
  cases.back().plan.delay_rate = 0.1;

  for (auto& test_case : cases) {
    SCOPED_TRACE(test_case.name);
    test_case.plan.seed = 1000 + static_cast<std::uint64_t>(
                                     test_case.name[0]);  // per-case stream
    MessageBus bus;
    FaultyTransport faulty(bus, test_case.plan);
    const Outcome outcome = run_to_completion(reports, bus, faulty);

    // Zero lost, zero double-counted: every acknowledged report was
    // processed exactly once, and the discoveries are label-for-label the
    // clean run's.
    EXPECT_EQ(outcome.discoveries, reference.discoveries);
    EXPECT_EQ(outcome.processed, reports.size());
  }
}

TEST_F(FaultMatrixTest, ServerRestartsMidStreamOverLossyWire) {
  const auto reports = make_reports(3, 10);

  MessageBus clean_bus;
  const Outcome reference = run_to_completion(reports, clean_bus, clean_bus);
  ASSERT_EQ(reference.processed, reports.size());

  const std::string wal_dir =
      (std::filesystem::temp_directory_path() / "praxi_wal_midstream")
          .string();
  std::filesystem::remove_all(wal_dir);

  FaultPlan plan;
  plan.seed = 4242;
  plan.drop_rate = 0.15;
  plan.duplicate_rate = 0.15;
  plan.truncate_rate = 0.1;
  plan.delay_rate = 0.1;
  plan.delay_drains = 2;
  MessageBus bus;
  FaultyTransport faulty(bus, plan);

  service::ServerConfig config;
  config.runtime.num_threads = 1;
  config.wal_dir = wal_dir;

  std::vector<std::string> wires;
  wires.reserve(reports.size());
  for (const auto& report : reports) wires.push_back(report.to_wire());

  const auto resend_unacked = [&] {
    bool all_acked = true;
    for (std::size_t i = 0; i < reports.size(); ++i) {
      if (bus.acknowledged(reports[i].agent_id, reports[i].sequence)) continue;
      all_acked = false;
      faulty.send(wires[i]);
    }
    return all_acked;
  };

  Outcome combined;
  const auto collect = [&](std::vector<service::Discovery> discoveries) {
    for (auto& d : discoveries) {
      combined.discoveries.emplace_back(d.agent_id, d.sequence,
                                        std::move(d.applications));
    }
  };

  // First life: a few resend rounds over the lossy wire, then the server
  // dies mid-stream. Its in-memory dedup state dies with it; the WAL does
  // not. (The broker — bus + delay queue — survives, as brokers do.)
  auto server = std::make_unique<service::DiscoveryServer>(*model_, config);
  for (int round = 0; round < 3; ++round) {
    resend_unacked();
    collect(server->process(faulty));
  }
  const std::uint64_t processed_first = server->processed();
  ASSERT_GT(processed_first, 0u);
  server.reset();  // crash

  // Second life: replay restores every settled (agent, sequence); agents
  // keep resending everything unacked until done.
  server = std::make_unique<service::DiscoveryServer>(*model_, config);
  ASSERT_NE(server->wal(), nullptr);
  EXPECT_EQ(server->wal()->replayed_records(), processed_first);
  for (int round = 0; round < 60; ++round) {
    if (resend_unacked()) break;
    collect(server->process(faulty));
  }
  for (int round = 0; round < 4; ++round) collect(server->process(faulty));
  std::sort(combined.discoveries.begin(), combined.discoveries.end());

  // Exactly-once across the crash: the two lives together processed every
  // report exactly once (zero duplicate learns), and the combined
  // discoveries match the uninterrupted run bit for bit.
  EXPECT_EQ(combined.discoveries, reference.discoveries);
  EXPECT_EQ(processed_first + server->processed(), reports.size());

  std::filesystem::remove_all(wal_dir);
}

TEST_F(FaultMatrixTest, DuplicatesAreCountedNotReprocessed) {
  const auto reports = make_reports(2, 8);
  MessageBus bus;
  FaultPlan plan;
  plan.seed = 5;
  plan.duplicate_rate = 1.0;  // every frame delivered twice
  FaultyTransport faulty(bus, plan);
  const Outcome outcome = run_to_completion(reports, bus, faulty);

  EXPECT_EQ(outcome.processed, reports.size());
  EXPECT_EQ(outcome.duplicates, reports.size())
      << "each duplicated frame must land in the duplicate outcome";
  EXPECT_EQ(faulty.duplicated(), reports.size());
}

TEST_F(FaultMatrixTest, InterleavedV1AndV2FramesMatchAV1OnlyRun) {
  // A fleet mid-upgrade: old agents still send v1 frames, new ones v2. The
  // server must not care — discoveries, inventory and the retained tagsets
  // equal a run where every agent sent v1.
  const auto reports = make_reports(3, 8);
  auto run = [&](bool interleave) {
    service::ServerConfig config;
    config.runtime.num_threads = 1;
    service::DiscoveryServer server(*model_, config);
    MessageBus bus;
    for (std::size_t i = 0; i < reports.size(); ++i) {
      bus.send(interleave && i % 2 == 1 ? reports[i].to_wire()
                                        : reports[i].to_wire_v1());
    }
    auto discoveries = server.process(bus);
    EXPECT_EQ(server.processed(), reports.size());
    EXPECT_EQ(server.malformed(), 0u);
    for (const auto& report : reports) {
      EXPECT_TRUE(bus.acknowledged(report.agent_id, report.sequence));
    }
    return std::make_tuple(std::move(discoveries), server.inventory(),
                           server.store().tagsets());
  };
  const auto [v1_discoveries, v1_inventory, v1_tagsets] = run(false);
  const auto [mixed_discoveries, mixed_inventory, mixed_tagsets] = run(true);
  ASSERT_FALSE(v1_discoveries.empty());
  ASSERT_EQ(mixed_discoveries.size(), v1_discoveries.size());
  for (std::size_t i = 0; i < v1_discoveries.size(); ++i) {
    const auto& a = v1_discoveries[i];
    const auto& b = mixed_discoveries[i];
    EXPECT_EQ(std::tie(a.agent_id, a.sequence, a.open_time_ms,
                       a.close_time_ms, a.record_count, a.inferred_quantity,
                       a.applications, a.model_epoch),
              std::tie(b.agent_id, b.sequence, b.open_time_ms,
                       b.close_time_ms, b.record_count, b.inferred_quantity,
                       b.applications, b.model_epoch));
  }
  EXPECT_EQ(mixed_inventory, v1_inventory);
  EXPECT_EQ(mixed_tagsets, v1_tagsets);
}

TEST_F(FaultMatrixTest, VersionThreeFrameCountsAsVersionMismatchAndSettles) {
  ChangesetReport report = make_reports(1, 1).front();
  report.agent_id = "vm-from-the-future";
  // A structurally sound frame one version past what this build reads.
  const std::string v2 = report.to_wire();
  const std::string v3 = seal_snapshot(
      service::kChangesetReportMagic, service::kChangesetReportVersion + 1,
      std::string_view(v2).substr(kSnapshotHeaderBytes));

  MessageBus bus;
  service::ServerConfig config;
  config.runtime.num_threads = 1;
  service::DiscoveryServer server(*model_, config);
  bus.send(v3);
  EXPECT_TRUE(server.process(bus).empty());
  EXPECT_EQ(server.version_mismatched(), 1u);
  EXPECT_EQ(server.malformed(), 0u);
  EXPECT_EQ(server.processed(), 0u);
  EXPECT_EQ(server.ingest_stats().at(report.agent_id).version_mismatch, 1u);
  // Settled: resending identical bytes could never help.
  EXPECT_TRUE(bus.acknowledged(report.agent_id, report.sequence));
}

TEST_F(FaultMatrixTest, CorruptionNeverDoubleCountsOrFabricates) {
  // Corruption is the one fault that can legitimately consume a report:
  // a bit flip in the envelope's version field (outside the payload CRC)
  // reads as a version mismatch, which settles the frame — resending
  // identical bytes could not help. Everything else must retry to exactly
  // the clean outcome; nothing may be processed twice or invented.
  const auto reports = make_reports(3, 12);
  MessageBus clean_bus;
  const Outcome reference = run_to_completion(reports, clean_bus, clean_bus);

  MessageBus bus;
  FaultPlan plan;
  plan.seed = 11;
  plan.corrupt_rate = 0.25;
  FaultyTransport faulty(bus, plan);
  const Outcome outcome = run_to_completion(reports, bus, faulty);

  EXPECT_EQ(outcome.duplicates, 0u);
  EXPECT_LE(outcome.processed, reports.size());
  // Every discovery made must match the clean run's for that (agent, seq).
  EXPECT_TRUE(std::includes(reference.discoveries.begin(),
                            reference.discoveries.end(),
                            outcome.discoveries.begin(),
                            outcome.discoveries.end()))
      << "a corrupted wire must never fabricate or alter a discovery";
}

}  // namespace
}  // namespace praxi::net
