// Tests for the TCP transport (src/net): loopback frame exchange, the
// hello/ack/busy protocol, partial-frame reassembly straight off a socket,
// overload (kBusy) behavior of the bounded ingest queue, reconnect-and-
// resend recovery from injected write faults, and the acceptance
// end-to-end: four concurrent agents streaming 1000 reports through a
// SocketServer under drops, truncated writes, and forced reconnects, with
// zero acknowledged-report loss or duplication and discoveries identical
// to the in-memory MessageBus run.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "net/frame.hpp"
#include "net/socket.hpp"
#include "net/socket_client.hpp"
#include "net/socket_server.hpp"
#include "service/server.hpp"
#include "service/transport.hpp"

namespace praxi::net {
namespace {

using service::ChangesetReport;
using service::TransportError;

/// Polls `pred` every couple of milliseconds until it holds or `limit`
/// elapses. Socket tests assert on state another thread produces; a bounded
/// poll keeps them deterministic-in-outcome without sleeping blindly.
template <typename Pred>
bool wait_until(Pred pred, std::chrono::milliseconds limit) {
  const auto deadline = std::chrono::steady_clock::now() + limit;
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return pred();
}

/// Client config pointed at `server` with test-friendly fast timings.
SocketClientConfig client_config(const SocketServer& server,
                                 const std::string& client_id) {
  SocketClientConfig config;
  config.port = server.port();
  config.client_id = client_id;
  config.transport.connect_timeout_ms = 2000;
  config.transport.io_timeout_ms = 500;
  config.transport.ack_timeout_ms = 150;
  config.transport.backoff_initial_ms = 2;
  config.transport.backoff_max_ms = 20;
  return config;
}

/// Checks an at-least-once delivery: every sent payload arrived, and the
/// only extra copies are frames the client resent after a reconnect (the
/// socket endpoint keeps no dedup state; DiscoveryServer does).
void expect_each_delivered(std::vector<std::string> got,
                           std::vector<std::string> sent,
                           const SocketClient& client) {
  const std::size_t copies = got.size();
  std::sort(got.begin(), got.end());
  got.erase(std::unique(got.begin(), got.end()), got.end());
  std::sort(sent.begin(), sent.end());
  EXPECT_EQ(got, sent);
  EXPECT_LE(copies - got.size(), client.stats().retransmits)
      << "a copy beyond the first must come from a resend";
}

TEST(SocketLoopback, RoundTripsPayloadsInOrder) {
  SocketServer server;
  SocketClient client(client_config(server, "vm-0"));

  const std::vector<std::string> payloads = {"report-alpha", "report-beta",
                                             std::string(4096, 'x')};
  for (const auto& payload : payloads) client.send(payload);
  EXPECT_TRUE(client.flush(5000));

  std::vector<std::string> got;
  wait_until(
      [&] {
        for (auto& p : server.drain()) got.push_back(std::move(p));
        return got.size() >= payloads.size();
      },
      std::chrono::milliseconds(5000));
  EXPECT_EQ(got, payloads) << "single client: arrival order is send order";

  const auto client_stats = client.stats();
  EXPECT_EQ(client_stats.acked_frames, payloads.size());
  EXPECT_EQ(client_stats.pending_frames, 0u);
  const auto server_stats = server.stats();
  EXPECT_EQ(server_stats.delivered_frames, payloads.size());

  client.close();
  server.close();
}

TEST(SocketLoopback, ServerEndIsReceiveOnly) {
  SocketServer server;
  EXPECT_THROW(server.send("nope"), TransportError);
  server.close();
}

TEST(SocketLoopback, SendAfterCloseThrows) {
  SocketServer server;
  SocketClient client(client_config(server, "vm-0"));
  client.close();
  client.close();  // idempotent
  EXPECT_THROW(client.send("late"), TransportError);
  server.close();
  server.close();  // idempotent
}

TEST(SocketLoopback, CloseReturnsQuicklyWithOpenConnections) {
  const auto started = std::chrono::steady_clock::now();
  {
    SocketServer server;
    auto raw = TcpStream::connect("127.0.0.1", server.port(), 1000);
    ASSERT_TRUE(raw.valid());
    raw.write_all(encode_frame(FrameType::kHello, 0, "lingerer"), 1000);
    wait_until([&] { return server.connections() >= 1; },
               std::chrono::milliseconds(3000));
    server.close();
  }
  const auto elapsed = std::chrono::steady_clock::now() - started;
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed)
                .count(),
            4000)
      << "close() must unblock the accept and reader threads promptly";
}

TEST(SocketProtocol, DataBeforeHelloDropsConnection) {
  SocketServer server;
  auto raw = TcpStream::connect("127.0.0.1", server.port(), 1000);
  raw.write_all(encode_frame(FrameType::kData, 0, "no hello"), 1000);

  EXPECT_TRUE(wait_until(
      [&] { return server.stats().malformed_frames >= 1; },
      std::chrono::milliseconds(5000)));
  // The server hangs up on protocol violators.
  std::string sink;
  EXPECT_TRUE(wait_until(
      [&] {
        return raw.read_some(sink, 256, 50) == IoStatus::kClosed;
      },
      std::chrono::milliseconds(5000)));
  EXPECT_EQ(server.stats().pending_frames, 0u);
  server.close();
}

TEST(SocketProtocol, ReassemblesFrameSplitAcrossWrites) {
  SocketServer server;
  auto raw = TcpStream::connect("127.0.0.1", server.port(), 1000);
  raw.write_all(encode_frame(FrameType::kHello, 0, "splitter"), 1000);

  const std::string frame = encode_frame(FrameType::kData, 0, "two halves");
  const std::size_t half = frame.size() / 2;
  raw.write_all(std::string_view(frame).substr(0, half), 1000);
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  raw.write_all(std::string_view(frame).substr(half), 1000);

  std::vector<std::string> got;
  EXPECT_TRUE(wait_until(
      [&] {
        for (auto& p : server.drain()) got.push_back(std::move(p));
        return !got.empty();
      },
      std::chrono::milliseconds(5000)));
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0], "two halves");
  server.close();
}

TEST(SocketProtocol, MidFrameDisconnectIsAbsorbed) {
  SocketServer server;
  {
    auto raw = TcpStream::connect("127.0.0.1", server.port(), 1000);
    raw.write_all(encode_frame(FrameType::kHello, 0, "quitter"), 1000);
    const std::string frame = encode_frame(FrameType::kData, 0, "never lands");
    raw.write_prefix(frame, frame.size() / 2, 1000);
    // raw's destructor closes the socket mid-frame.
  }
  wait_until([&] { return server.connections() == 0; },
             std::chrono::milliseconds(5000));
  EXPECT_TRUE(server.drain().empty())
      << "a partial frame must never surface as a payload";

  // The server keeps serving: a well-behaved client still gets through.
  SocketClient client(client_config(server, "survivor"));
  client.send("after the storm");
  EXPECT_TRUE(client.flush(5000));
  std::vector<std::string> got;
  wait_until(
      [&] {
        for (auto& p : server.drain()) got.push_back(std::move(p));
        return !got.empty();
      },
      std::chrono::milliseconds(5000));
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0], "after the storm");
  client.close();
  server.close();
}

TEST(SocketOverload, BusyWhenQueueFullThenRecovers) {
  SocketServerConfig server_config;
  server_config.transport.queue_bound = 2;
  SocketServer server(server_config);
  SocketClient client(client_config(server, "flooder"));

  std::vector<std::string> sent;
  for (int i = 0; i < 6; ++i) {
    sent.push_back("flood-" + std::to_string(i));
    client.send(sent.back());
  }
  // Nothing drains yet, so the queue must fill and the server must say
  // busy instead of buffering without bound.
  EXPECT_TRUE(wait_until(
      [&] {
        client.flush(10);
        return server.stats().overloads >= 1;
      },
      std::chrono::milliseconds(5000)));
  EXPECT_LE(server.stats().pending_frames, 2u);

  // Once the consumer drains, backed-off clients get everything through.
  std::vector<std::string> got;
  EXPECT_TRUE(wait_until(
      [&] {
        const bool settled = client.flush(10);
        for (auto& p : server.drain()) got.push_back(std::move(p));
        return settled && got.size() >= sent.size();
      },
      std::chrono::milliseconds(10000)));
  expect_each_delivered(got, sent, client);
  EXPECT_GE(client.stats().overloads, 1u) << "client observed kBusy";
  client.close();
  server.close();
}

TEST(SocketRecovery, TruncatedWriteForcesReconnectAndResend) {
  SocketServer server;
  auto config = client_config(server, "trunc");
  config.write_fault = [](std::uint64_t write_index) {
    WriteFault fault;
    if (write_index == 1) {
      fault.kind = WriteFault::Kind::kTruncateThenClose;
      fault.keep_bytes = 6;  // mid-header: the server sees a torn frame
    }
    return fault;
  };
  SocketClient client(config);

  std::vector<std::string> sent;
  for (int i = 0; i < 5; ++i) {
    sent.push_back("frame-" + std::to_string(i));
    client.send(sent.back());
  }
  EXPECT_TRUE(client.flush(10000));
  EXPECT_GE(client.stats().reconnects, 1u);
  EXPECT_GE(client.stats().retransmits, 1u);

  client.close();
  server.close();  // joins the readers: every delivered copy is queued
  expect_each_delivered(server.drain(), sent, client);
}

TEST(SocketRecovery, DroppedWriteRecoversViaAckTimeout) {
  SocketServer server;
  auto config = client_config(server, "dropper");
  config.transport.ack_timeout_ms = 60;
  config.write_fault = [](std::uint64_t write_index) {
    WriteFault fault;
    if (write_index == 0) fault.kind = WriteFault::Kind::kDrop;
    return fault;
  };
  SocketClient client(config);

  std::vector<std::string> sent = {"lost-once", "clean-1", "clean-2"};
  for (const auto& payload : sent) client.send(payload);
  EXPECT_TRUE(client.flush(10000))
      << "the overdue ack must force a reconnect-and-resend";
  EXPECT_GE(client.stats().retransmits, 1u);

  client.close();
  server.close();  // joins the readers: every delivered copy is queued
  expect_each_delivered(server.drain(), sent, client);
}

// ------------------------------------------------------- acceptance e2e --

/// Synthetic application changesets dense enough to pass quantity
/// inference (30 creates inside one second >> hot_bucket_records), with
/// per-app distinctive paths so the model separates them cleanly. Synthetic
/// keeps 1000-report classification cheap enough for the TSan lane.
fs::Changeset app_changeset(std::size_t app, bool labeled) {
  fs::Changeset cs;
  cs.set_open_time(1000);
  for (int i = 0; i < 30; ++i) {
    cs.add(fs::ChangeRecord{"/opt/app" + std::to_string(app) + "/bin/tool" +
                                std::to_string(i),
                            0755, fs::ChangeKind::kCreate, 1000 + i});
  }
  if (labeled) cs.add_label("app-" + std::to_string(app));
  cs.close(2000);
  return cs;
}

constexpr std::size_t kApps = 8;
constexpr std::size_t kAgents = 4;
constexpr std::size_t kReportsPerAgent = 250;

class NetEndToEndTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    std::vector<fs::Changeset> train;
    for (std::size_t app = 0; app < kApps; ++app) {
      train.push_back(app_changeset(app, true));
    }
    std::vector<const fs::Changeset*> pointers;
    for (const auto& cs : train) pointers.push_back(&cs);
    model_ = new core::Praxi();
    model_->train_changesets(pointers);
  }

  static void TearDownTestSuite() { delete model_; }

  using DiscoveryKey =
      std::tuple<std::string, std::uint64_t, std::vector<std::string>>;

  static std::vector<DiscoveryKey> sorted_keys(
      std::vector<service::Discovery> discoveries) {
    std::vector<DiscoveryKey> keys;
    keys.reserve(discoveries.size());
    for (auto& d : discoveries) {
      keys.emplace_back(std::move(d.agent_id), d.sequence,
                        std::move(d.applications));
    }
    std::sort(keys.begin(), keys.end());
    return keys;
  }

  static core::Praxi* model_;
};

core::Praxi* NetEndToEndTest::model_ = nullptr;

TEST_F(NetEndToEndTest, RedeliveredFrameIsQueuedAgainAndSettledAsDuplicate) {
  // One dedup layer: a frame resent after a lost ack is acked and queued
  // again by the socket endpoint, and the DiscoveryServer's per-agent
  // tracker settles the copy as a duplicate. The queue bound still holds:
  // the copy takes a slot, a new frame past the bound bounces, and its
  // resend lands once the consumer drains.
  SocketServerConfig server_config;
  server_config.transport.queue_bound = 2;
  SocketServer transport(server_config);
  service::DiscoveryServer server(*model_, {});

  auto raw = TcpStream::connect("127.0.0.1", transport.port(), 1000);
  ASSERT_TRUE(raw.valid());
  raw.write_all(encode_frame(FrameType::kHello, 0, "vm-redeliver"), 1000);

  FrameDecoder decoder;
  std::string buffer;
  // Reads replies off the raw stream until one for `sequence` shows up.
  const auto next_reply_for = [&](std::uint64_t sequence) {
    Frame reply;
    const bool got = wait_until(
        [&] {
          buffer.clear();
          if (raw.read_some(buffer, 256, 50) == IoStatus::kOk) {
            decoder.feed(buffer);
          }
          while (auto frame = decoder.next()) {
            if (frame->sequence == sequence) {
              reply = *frame;
              return true;
            }
          }
          return false;
        },
        std::chrono::milliseconds(5000));
    EXPECT_TRUE(got) << "no reply for sequence " << sequence;
    return reply;
  };

  const auto report_frame = [](std::uint64_t sequence) {
    ChangesetReport report;
    report.agent_id = "vm-redeliver";
    report.sequence = sequence;
    report.changeset = app_changeset(sequence % kApps, false);
    return encode_frame(FrameType::kData, sequence, report.to_wire());
  };
  const std::string first = report_frame(0);
  raw.write_all(first, 1000);
  EXPECT_EQ(next_reply_for(0).type, FrameType::kAck);
  raw.write_all(first, 1000);  // the client never saw the first ack
  EXPECT_EQ(next_reply_for(0).type, FrameType::kAck);
  EXPECT_EQ(transport.stats().pending_frames, 2u) << "both copies queued";

  const std::string second = report_frame(1);
  raw.write_all(second, 1000);
  EXPECT_EQ(next_reply_for(1).type, FrameType::kBusy) << "queue bound";
  EXPECT_EQ(transport.stats().overloads, 1u);

  const auto discoveries = server.process(transport);
  EXPECT_EQ(discoveries.size(), 1u);
  EXPECT_EQ(transport.stats().delivered_frames, 2u);
  EXPECT_EQ(transport.stats().acked_frames, 2u) << "the copy settles too";
  EXPECT_EQ(server.totals().processed, 1u);
  EXPECT_EQ(server.totals().duplicate, 1u);

  raw.write_all(second, 1000);  // the bounced frame's resend
  EXPECT_EQ(next_reply_for(1).type, FrameType::kAck);
  server.process(transport);
  EXPECT_EQ(server.totals().processed, 2u);
  EXPECT_EQ(server.totals().duplicate, 1u);
  EXPECT_EQ(transport.stats().duplicates, 0u);
  transport.close();
}

TEST_F(NetEndToEndTest, FourFaultyAgentsThousandReportsZeroLossZeroDup) {
  // Pre-build every wire so agent threads only push bytes.
  std::vector<std::vector<std::string>> wires(kAgents);
  for (std::size_t a = 0; a < kAgents; ++a) {
    for (std::size_t seq = 0; seq < kReportsPerAgent; ++seq) {
      ChangesetReport report;
      report.agent_id = "agent-" + std::to_string(a);
      report.sequence = seq;
      report.changeset = app_changeset(seq % kApps, false);
      wires[a].push_back(report.to_wire());
    }
  }

  // Reference: the same fleet through the in-memory bus.
  std::vector<DiscoveryKey> reference;
  {
    service::MessageBus bus;
    for (const auto& agent_wires : wires) {
      for (const auto& wire : agent_wires) bus.send(wire);
    }
    service::DiscoveryServer ref_server(*model_, {});
    reference = sorted_keys(ref_server.process(bus));
    ASSERT_EQ(ref_server.processed(), kAgents * kReportsPerAgent);
  }

  // Socket run, with per-agent deterministic faults: drops, torn writes,
  // forced disconnects, and refused connection attempts.
  SocketServerConfig server_config;
  server_config.transport.queue_bound = 512;
  SocketServer transport(server_config);
  service::DiscoveryServer server(*model_, {});

  std::atomic<int> unsettled{0};
  std::vector<std::thread> agents;
  agents.reserve(kAgents);
  for (std::size_t a = 0; a < kAgents; ++a) {
    agents.emplace_back([&, a] {
      auto config = client_config(transport, "agent-" + std::to_string(a));
      switch (a) {
        case 0:
          config.write_fault = [](std::uint64_t i) {
            WriteFault fault;
            if (i % 17 == 9) fault.kind = WriteFault::Kind::kDrop;
            return fault;
          };
          break;
        case 1:
          config.write_fault = [](std::uint64_t i) {
            WriteFault fault;
            if (i % 23 == 5) {
              fault.kind = WriteFault::Kind::kTruncateThenClose;
              fault.keep_bytes = 7;
            }
            return fault;
          };
          break;
        case 2:
          config.write_fault = [](std::uint64_t i) {
            WriteFault fault;
            if (i % 31 == 3) {
              fault.kind = WriteFault::Kind::kDisconnectBeforeWrite;
            }
            return fault;
          };
          break;
        default:
          config.write_fault = [](std::uint64_t i) {
            WriteFault fault;
            if (i % 29 == 11) fault.kind = WriteFault::Kind::kDrop;
            return fault;
          };
          config.connect_fault = [](std::uint64_t attempt) {
            return attempt % 7 == 2;  // refuse some reconnect attempts
          };
          break;
      }
      SocketClient client(config);
      for (const auto& wire : wires[a]) client.send(wire);
      if (!client.flush(60000)) unsettled.fetch_add(1);
      client.close();
    });
  }

  // The consumer loop: classify whatever has arrived, repeatedly, exactly
  // as `praxi-cli serve` does.
  std::vector<service::Discovery> discoveries;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(120);
  while (server.processed() < kAgents * kReportsPerAgent &&
         std::chrono::steady_clock::now() < deadline) {
    for (auto& d : server.process(transport)) {
      discoveries.push_back(std::move(d));
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  for (auto& agent : agents) agent.join();
  // close() joins the reader threads, so every copy that reached the
  // server is queued before the last drain.
  transport.close();
  for (auto& d : server.process(transport)) discoveries.push_back(std::move(d));

  EXPECT_EQ(unsettled.load(), 0) << "every agent must settle all its reports";
  EXPECT_EQ(server.processed(), kAgents * kReportsPerAgent)
      << "zero acknowledged reports lost";
  const auto stats = transport.stats();
  EXPECT_EQ(server.duplicates(),
            stats.delivered_frames - kAgents * kReportsPerAgent)
      << "every redelivered copy is settled as a duplicate, none processed";
  EXPECT_EQ(sorted_keys(std::move(discoveries)), reference)
      << "socket discoveries must be identical to the in-memory bus run";
}

}  // namespace
}  // namespace praxi::net
