#include "host.hpp"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <utility>

#include "cluster/shard_router.hpp"
#include "core/discovery_service.hpp"
#include "core/praxi.hpp"
#include "net/socket_client.hpp"
#include "net/socket_server.hpp"
#include "obs/metrics.hpp"
#include "replay.hpp"
#include "service/server.hpp"
#include "service/transport.hpp"

namespace perfbench {

namespace {

namespace stdfs = std::filesystem;
using Clock = std::chrono::steady_clock;
using Labels = std::vector<std::string>;

constexpr std::size_t kShards = 2;
/// The CLI host loop's pause between process() calls (cli.cpp).
constexpr auto kHostSleep = std::chrono::milliseconds(5);
constexpr int kSetupRepeats = 5;
/// Idle-server learn_feedback calls come in bursts spread over a few
/// seconds, each burst one slice: the build host's speed drifts by a
/// quarter within seconds, so a figure taken in one moment does not
/// repeat; a median over time does.
constexpr int kFeedbackBursts = 5;
constexpr auto kBurstGap = std::chrono::milliseconds(600);
constexpr int kMinScrapes = 5;
constexpr double kScrapeSeconds = 1.0;
/// Unrecorded learn_feedback calls before the idle-server samples.
constexpr std::size_t kFeedbackWarmup = 100;
/// Latency slices: open-loop reports and feedback calls by due second,
/// closed-loop reports by pass, idle-server feedback calls by burst.
constexpr double kSliceSeconds = 1.0;
constexpr std::size_t kFeedbackBurst = 1000;
/// Closed loops run at least this many passes; ingest_rps is their median.
constexpr std::size_t kMinPasses = 3;
/// The percentiles settle_p99_ms and feedback_p99_ms report: the highest
/// that repeated within the bound in sets of ten seeds on the 4-vCPU build
/// host (README.md gives the spreads). install_wave's closed-loop settle
/// p99 is bimodal (a report that misses a round waits a whole round more).
/// On learn_while_serve, settles and feedback contend for the server state
/// lock: the feedback calls that waited for a process() round form a
/// second mode, as large as the rounds' share of time (15-22%), so the
/// percentiles above about p80 move with that share.
double settle_tail(Workload workload) {
  return workload == Workload::kLearnWhileServe ? 75.0 : 95.0;
}
double feedback_tail(Workload workload) {
  return workload == Workload::kLearnWhileServe ? 70.0 : 99.0;
}
/// A sent report that has not settled this long after the last send is
/// lost, and a closed loop that settles nothing for this long is wedged:
/// either way the run fails.
constexpr std::int64_t kSettleTimeoutNs = 30'000'000'000;
constexpr std::uint32_t kNone = UINT32_MAX;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

double seconds_between(std::int64_t from_ns, std::int64_t to_ns) {
  return static_cast<double>(to_ns - from_ns) * 1e-9;
}

double process_cpu_s() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
  };
  return tv(usage.ru_utime) + tv(usage.ru_stime);
}

double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

bool is_cluster(Workload w) { return w == Workload::kInstallWave; }

service::ServerConfig server_config() {
  service::ServerConfig config;
  // One classification worker per server: the default (0) spawns a pool
  // thread per hardware thread in every shard.
  config.runtime.num_threads = 1;
  return config;
}

// ---------------------------------------------------------------------------
// The service under test, in its production topology.

class Service {
 public:
  Service(Workload workload, const core::Praxi& model,
          const std::string& wal_dir) {
    if (is_cluster(workload)) {
      cluster::ClusterConfig config;
      config.shards = kShards;
      config.server = server_config();
      config.wal_root = wal_dir;
      router_ = std::make_unique<cluster::ShardRouter>(model, config);
    } else {
      service::ServerConfig config = server_config();
      config.wal_dir = wal_dir;
      server_ = std::make_unique<service::DiscoveryServer>(model, config);
    }
    // Listener opens only after WAL replay, as in the CLI.
    net::SocketServerConfig socket;
    socket.transport = server_config().transport;
    frontend_ = std::make_unique<net::SocketServer>(socket);
  }

  ~Service() {
    frontend_->close();
    if (router_) router_->close();
  }

  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  std::vector<service::Discovery> process(service::Transport& ingress) {
    return router_ ? router_->process(ingress) : server_->process(ingress);
  }

  std::uint16_t port() const { return frontend_->port(); }
  net::SocketServer& frontend() { return *frontend_; }
  service::DiscoveryServer* single() { return server_.get(); }

  std::vector<const service::DiscoveryServer*> servers() const {
    std::vector<const service::DiscoveryServer*> out;
    if (server_) out.push_back(server_.get());
    if (router_) {
      for (std::size_t i = 0; i < router_->shard_count(); ++i)
        out.push_back(&router_->shard(i));
    }
    return out;
  }

  std::map<std::string, std::set<std::string>> inventory() {
    if (server_) return server_->inventory();
    std::map<std::string, std::set<std::string>> out;
    for (auto& [agent, row] : router_->merge_now().agents)
      out[agent] = row.applications;
    return out;
  }

 private:
  std::unique_ptr<cluster::ShardRouter> router_;
  std::unique_ptr<service::DiscoveryServer> server_;
  std::unique_ptr<net::SocketServer> frontend_;
};

// ---------------------------------------------------------------------------
// Per-report bookkeeping.

class FrameIndex {
 public:
  explicit FrameIndex(const Inputs& in) : by_agent_(in.agents) {
    for (std::uint32_t i = 0; i < in.frames.size(); ++i) {
      const FrameMeta& f = in.frames[i];
      auto& slots = by_agent_.at(f.agent);
      if (slots.size() <= f.sequence) slots.resize(f.sequence + 1, kNone);
      slots[f.sequence] = i;
    }
  }

  std::uint32_t find(std::string_view agent, std::uint64_t sequence) const {
    const auto a = parse_agent_id(agent);
    if (!a || *a >= by_agent_.size()) return kNone;
    const auto& slots = by_agent_[*a];
    return sequence < slots.size() ? slots[sequence] : kNone;
  }

  std::uint32_t find_wire(std::string_view wire) const {
    const auto identity = service::ChangesetReport::peek_identity(wire);
    return identity ? find(identity->agent_id, identity->sequence) : kNone;
  }

 private:
  std::vector<std::vector<std::uint32_t>> by_agent_;
};

struct FrameStates {
  explicit FrameStates(std::size_t n)
      : sent_ns(n, -1),
        drained_ns(n, -1),
        settled_ns(n, -1),
        settles(n, 0),
        discoveries(n, 0),
        epoch(n, 0),
        round(n, 0),
        apps(n) {}
  std::vector<std::int64_t> sent_ns;     ///< generator thread
  std::vector<std::int64_t> drained_ns;  ///< host thread (traced runs)
  std::vector<std::int64_t> settled_ns;  ///< host thread
  std::vector<std::uint16_t> settles;
  std::vector<std::uint16_t> discoveries;
  std::vector<std::uint64_t> epoch;
  std::vector<std::uint32_t> round;
  std::vector<Labels> apps;
};

/// Decorator around the frontend: attributes every drained and
/// acknowledged frame to the report it carries.
class MeasuredIngress final : public service::Transport {
 public:
  MeasuredIngress(service::Transport& inner, const FrameIndex& index,
                  FrameStates& states, bool trace)
      : inner_(inner), index_(index), states_(states), trace_(trace) {}

  void send(std::string wire) override { inner_.send(std::move(wire)); }

  std::vector<std::string> drain() override {
    std::vector<std::string> out = inner_.drain();
    drained_ += out.size();
    if (trace_ && !out.empty()) {
      const std::int64_t t = now_ns();
      for (const auto& wire : out) {
        const std::uint32_t id = index_.find_wire(wire);
        if (id != kNone && states_.drained_ns[id] < 0) states_.drained_ns[id] = t;
      }
    }
    return out;
  }

  void ack(std::string_view wire) override {
    inner_.ack(wire);
    acked_.push_back(index_.find_wire(wire));
  }

  void close() override { inner_.close(); }
  service::TransportStats stats() const override { return inner_.stats(); }

  std::size_t take_drained() { return std::exchange(drained_, 0); }
  std::vector<std::uint32_t> take_acked() { return std::exchange(acked_, {}); }

 private:
  service::Transport& inner_;
  const FrameIndex& index_;
  FrameStates& states_;
  bool trace_;
  std::size_t drained_ = 0;
  std::vector<std::uint32_t> acked_;
};

// ---------------------------------------------------------------------------
// One phase: generator + host loop (+ feedback thread) over one topology.

struct Round {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::size_t frames = 0;
};

struct PhaseConfig {
  bool open_loop = false;
  bool trace = false;
  /// learn_while_serve: make the workload's learn_feedback calls.
  bool feedback = false;
};

struct PhaseOutcome {
  explicit PhaseOutcome(std::size_t frames) : states(frames) {}
  FrameStates states;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  double process_cpu_s = 0.0;
  double generator_cpu_s = 0.0;
  std::vector<Round> rounds;
  std::uint64_t send_attempts = 0;
  std::uint64_t refused = 0;
  std::uint64_t unknown_acks = 0;
  std::uint64_t unknown_discoveries = 0;
  bool timed_out = false;
  std::vector<double> send_s;   ///< traced: SocketClient::send wall times
  std::vector<double> flush_s;  ///< traced: SocketClient::flush wall times
  std::uint64_t busy_bounces = 0;
  std::uint64_t retransmits = 0;
  std::vector<double> feedback_wall_s;
  std::uint64_t feedback_failed = 0;
  std::uint64_t epoch_before = 0;
  std::uint64_t epoch_after = 0;
  // Server-side totals of the phase's topology.
  std::uint64_t processed = 0;
  std::uint64_t duplicates = 0;
  std::uint64_t resident_agents = 0;
  double load_imbalance = 1.0;  ///< busiest server's processed / mean
};

PhaseOutcome run_phase(const Inputs& in, Service& svc, const FrameIndex& index,
                       const PhaseConfig& pc) {
  PhaseOutcome out(in.frames.size());
  FrameStates& states = out.states;
  MeasuredIngress ingress(svc.frontend(), index, states, pc.trace);

  std::atomic<std::uint64_t> sent_total{0};
  std::atomic<bool> generator_done{false};
  std::atomic<bool> host_done{false};
  std::vector<std::atomic<std::uint64_t>> conn_settled(in.connections);
  std::mutex round_mutex;
  std::condition_variable round_cv;
  std::uint64_t round_counter = 0;

  if (svc.single() != nullptr) out.epoch_before = svc.single()->model().epoch();
  const std::int64_t start = now_ns();
  out.start_ns = start;
  const double cpu_start = process_cpu_s();

  // --- generator: one thread, one SocketClient per connection. ---
  std::thread generator([&] {
    const double cpu0 = thread_cpu_s();
    std::vector<std::unique_ptr<net::SocketClient>> clients;
    for (std::uint32_t c = 0; c < in.connections; ++c) {
      net::SocketClientConfig config;
      config.port = svc.port();
      config.client_id = "relay-" + std::to_string(c);
      clients.push_back(std::make_unique<net::SocketClient>(config));
    }
    const std::size_t bound = service::TransportConfig{}.resend_buffer_bound;
    // Keeps every connection's unacknowledged frames below the client's
    // resend buffer bound, so send() never refuses for backpressure.
    const auto has_room = [&](std::uint32_t c) {
      return clients[c]->stats().pending_frames + 1 < bound;
    };
    const auto pump = [&](std::uint32_t timeout_ms) {
      for (auto& client : clients) {
        const std::int64_t t0 = pc.trace ? now_ns() : 0;
        client->flush(timeout_ms);
        if (pc.trace) out.flush_s.push_back(seconds_between(t0, now_ns()));
      }
    };
    const auto send = [&](std::uint32_t id) {
      const std::uint32_t c = in.frames[id].connection;
      ++out.send_attempts;
      const std::int64_t t0 = now_ns();
      states.sent_ns[id] = t0;
      try {
        clients[c]->send(in.wires[id]);
      } catch (const service::TransportError&) {
        states.sent_ns[id] = -1;
        ++out.refused;
        return false;
      }
      if (pc.trace) out.send_s.push_back(seconds_between(t0, now_ns()));
      sent_total.fetch_add(1, std::memory_order_release);
      return true;
    };

    if (pc.open_loop) {
      std::int64_t last_pump = now_ns();
      for (std::uint32_t id = 0; id < in.frames.size(); ++id) {
        const FrameMeta& f = in.frames[id];
        const std::int64_t due =
            start + static_cast<std::int64_t>(f.due_s * 1e9);
        for (std::int64_t now = now_ns(); now < due; now = now_ns()) {
          if (now - last_pump > 1'000'000) {
            pump(0);
            last_pump = now_ns();
            continue;
          }
          std::this_thread::sleep_for(std::chrono::nanoseconds(
              std::min<std::int64_t>(due - now, 200'000)));
        }
        // Past the timeout the send goes ahead and a refusal is counted.
        for (const std::int64_t t0 = now_ns();
             !has_room(f.connection) && now_ns() - t0 < kSettleTimeoutNs;) {
          clients[f.connection]->flush(1);
        }
        send(id);
        if (now_ns() - last_pump > 1'000'000) {
          pump(0);
          last_pump = now_ns();
        }
      }
    } else {
      std::vector<std::vector<std::uint32_t>> queues(in.connections);
      for (std::uint32_t id = 0; id < in.frames.size(); ++id)
        queues[in.frames[id].connection].push_back(id);
      std::vector<std::size_t> next(in.connections, 0);
      std::vector<std::uint64_t> sent(in.connections, 0);
      std::uint64_t seen_round = 0;
      std::uint64_t settled_before = 0;
      std::int64_t progress_at = now_ns();
      for (;;) {
        std::uint64_t settled_now = 0;
        for (const auto& c : conn_settled) settled_now += c.load(std::memory_order_acquire);
        if (settled_now != settled_before) {
          settled_before = settled_now;
          progress_at = now_ns();
        } else if (now_ns() - progress_at > kSettleTimeoutNs) {
          break;  // wedged: the host reports the unsettled reports
        }
        bool more = false;
        for (std::uint32_t c = 0; c < in.connections; ++c) {
          while (next[c] < queues[c].size() &&
                 sent[c] - conn_settled[c].load(std::memory_order_acquire) <
                     in.window &&
                 has_room(c)) {
            if (send(queues[c][next[c]++])) ++sent[c];
          }
          if (next[c] < queues[c].size()) more = true;
        }
        if (!more) break;
        pump(0);
        std::unique_lock lock(round_mutex);
        round_cv.wait_for(lock, std::chrono::milliseconds(1),
                          [&] { return round_counter != seen_round; });
        seen_round = round_counter;
      }
    }
    generator_done.store(true, std::memory_order_release);
    // Keep the wire moving until the host has seen every report settle.
    while (!host_done.load(std::memory_order_acquire)) {
      pump(0);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    for (auto& client : clients) {
      client->close();
      const auto s = client->stats();
      out.busy_bounces += s.overloads;
      out.retransmits += s.retransmits;
    }
    out.generator_cpu_s = thread_cpu_s() - cpu0;
  });

  // --- operator feedback: a second bench thread, on the seeded schedule. ---
  std::thread feedback;
  if (pc.feedback) {
    feedback = std::thread([&] {
      service::DiscoveryServer& server = *svc.single();
      for (std::size_t k = 0; k < in.feedback_due_s.size(); ++k) {
        const std::int64_t due =
            start + static_cast<std::int64_t>(in.feedback_due_s[k] * 1e9);
        const std::int64_t now = now_ns();
        if (due > now) std::this_thread::sleep_for(std::chrono::nanoseconds(due - now));
        const std::int64_t t0 = now_ns();
        try {
          server.learn_feedback(in.feedback[k % in.feedback.size()]);
        } catch (const std::exception& e) {
          std::fprintf(stderr, "perfbench: learn_feedback failed: %s\n", e.what());
          ++out.feedback_failed;
        }
        out.feedback_wall_s.push_back(seconds_between(t0, now_ns()));
      }
    });
  }

  // --- host loop: exactly the CLI's process-then-sleep. ---
  std::uint64_t settled_total = 0;
  std::int64_t generator_done_at = 0;
  for (;;) {
    const std::int64_t t0 = now_ns();
    std::vector<service::Discovery> discoveries = svc.process(ingress);
    const std::int64_t t1 = now_ns();
    out.rounds.push_back({t0, t1, ingress.take_drained()});
    const auto round_id = static_cast<std::uint32_t>(out.rounds.size() - 1);
    for (const std::uint32_t id : ingress.take_acked()) {
      if (id == kNone) {
        ++out.unknown_acks;
        continue;
      }
      if (states.settles[id]++ == 0) {
        states.settled_ns[id] = t1;
        states.round[id] = round_id;
        conn_settled[in.frames[id].connection].fetch_add(
            1, std::memory_order_release);
        ++settled_total;
      }
    }
    for (auto& d : discoveries) {
      const std::uint32_t id = index.find(d.agent_id, d.sequence);
      if (id == kNone) {
        ++out.unknown_discoveries;
        continue;
      }
      ++states.discoveries[id];
      states.epoch[id] = d.model_epoch;
      states.apps[id] = std::move(d.applications);
    }
    {
      std::lock_guard lock(round_mutex);
      ++round_counter;
    }
    round_cv.notify_all();
    if (generator_done.load(std::memory_order_acquire)) {
      if (generator_done_at == 0) generator_done_at = now_ns();
      if (settled_total >= sent_total.load(std::memory_order_acquire)) break;
      if (now_ns() - generator_done_at > kSettleTimeoutNs) {
        // Frames still unsettled now count as lost.
        out.timed_out = true;
        break;
      }
    }
    std::this_thread::sleep_for(kHostSleep);
  }
  out.end_ns = now_ns();
  host_done.store(true, std::memory_order_release);
  generator.join();
  if (feedback.joinable()) feedback.join();
  out.process_cpu_s = process_cpu_s() - cpu_start;
  if (svc.single() != nullptr) out.epoch_after = svc.single()->model().epoch();
  const auto servers = svc.servers();
  std::uint64_t busiest = 0;
  for (const auto* server : servers) {
    out.processed += server->processed();
    out.duplicates += server->duplicates();
    out.resident_agents += server->resident_agents();
    busiest = std::max(busiest, server->processed());
  }
  if (out.processed > 0) {
    out.load_imbalance = static_cast<double>(busiest) *
                         static_cast<double>(servers.size()) /
                         static_cast<double>(out.processed);
  }
  return out;
}

// ---------------------------------------------------------------------------
// The correctness oracle: offline predictions of the served windows.

struct Oracle {
  std::vector<std::size_t> quantity;  ///< per content; 0 = screened out
  std::vector<columbus::TagSet> tags;
  std::vector<Labels> base;  ///< prediction of the set-up epoch
  std::uint64_t base_epoch = 0;
  std::size_t n(core::LabelMode mode, std::uint32_t content) const {
    return mode == core::LabelMode::kSingleLabel ? 1 : quantity[content];
  }
};

Oracle make_oracle(const Inputs& in, const core::Praxi& model) {
  Oracle oracle;
  const auto snap = model.snapshot();
  oracle.base_epoch = snap->epoch();
  const core::DiscoveryServiceConfig quantity = server_config().quantity;
  for (std::uint32_t i = 0; i < in.contents.size(); ++i) {
    const fs::Changeset& c = in.contents[i];
    const std::size_t q =
        c.empty() ? 0 : core::DiscoveryService::infer_quantity(c, quantity);
    oracle.quantity.push_back(q);
    if (q == 0) {
      oracle.tags.emplace_back();
      oracle.base.emplace_back();
      continue;
    }
    oracle.tags.push_back(snap->extract_tags(c));
    oracle.base.push_back(snap->predict_tags(oracle.tags.back(), oracle.n(in.mode, i)));
  }
  return oracle;
}

Labels sorted(Labels labels) {
  std::sort(labels.begin(), labels.end());
  return labels;
}

class LabelIds {
 public:
  std::vector<std::uint32_t> ids(const Labels& labels) {
    std::vector<std::uint32_t> out;
    for (const auto& l : labels) out.push_back(map_.emplace(l, map_.size()).first->second);
    return out;
  }

 private:
  std::map<std::string, std::uint32_t> map_;
};

/// Checks one phase against the oracle; appends any violation to `errors`
/// and counts sent reports that never settled.
void check_phase(const Inputs& in, const Oracle& oracle,
                 const core::Praxi& model, Service& svc,
                 const PhaseOutcome& out, std::vector<std::string>& errors,
                 std::uint64_t& never_settled) {
  const FrameStates& st = out.states;
  const auto fail = [&](std::string what) {
    if (errors.size() < 20) errors.push_back(std::move(what));
  };
  if (out.timed_out) fail("reports still unsettled 30 s after the last send");
  if (out.unknown_acks > 0)
    fail(std::to_string(out.unknown_acks) + " acks for frames never sent");
  if (out.unknown_discoveries > 0)
    fail(std::to_string(out.unknown_discoveries) + " discoveries for unknown reports");

  std::uint64_t sent = 0;
  std::uint64_t lost = 0;
  std::vector<std::pair<std::uint64_t, std::uint32_t>> later_epochs;
  std::map<std::string, std::set<std::string>> union_inventory;
  for (std::uint32_t id = 0; id < in.frames.size(); ++id) {
    const FrameMeta& f = in.frames[id];
    if (st.sent_ns[id] < 0) {
      if (st.settles[id] > 0) fail("report " + std::to_string(id) + " settled but never sent");
      continue;
    }
    ++sent;
    if (st.settles[id] == 0) ++lost;
    const bool expected = oracle.quantity[f.content] > 0;
    if (st.discoveries[id] != (expected ? 1 : 0)) {
      fail("report " + agent_id(f.agent) + "/" + std::to_string(f.sequence) +
           " produced " + std::to_string(st.discoveries[id]) +
           " discoveries, expected " + (expected ? "1" : "0"));
      continue;
    }
    if (!expected) continue;
    for (const auto& app : st.apps[id]) union_inventory[agent_id(f.agent)].insert(app);
    if (st.epoch[id] == oracle.base_epoch) {
      if (sorted(st.apps[id]) != sorted(oracle.base[f.content]))
        fail("report " + agent_id(f.agent) + "/" + std::to_string(f.sequence) +
             " discovery differs from the offline prediction of epoch " +
             std::to_string(st.epoch[id]));
    } else {
      later_epochs.emplace_back(st.epoch[id], id);
    }
  }
  never_settled += lost;
  if (lost > 0) fail(std::to_string(lost) + " sent reports never settled");

  // Exactly once: every sent report was processed once, none twice.
  if (out.processed != sent)
    fail("servers processed " + std::to_string(out.processed) + " reports for " +
         std::to_string(sent) + " sent");
  if (svc.inventory() != union_inventory)
    fail("merged inventory differs from the union of discoveries");

  // Online learning: rebuild every later epoch offline by replaying the
  // same ordered learn_one sequence the feedback thread drove.
  if (!later_epochs.empty()) {
    std::sort(later_epochs.begin(), later_epochs.end());
    core::Praxi replica = model;
    replica.set_runtime(server_config().runtime);
    std::size_t applied = 0;
    for (const auto& [epoch, id] : later_epochs) {
      while (replica.epoch() < epoch && applied < out.feedback_wall_s.size()) {
        replica.learn_one(
            replica.extract_tags(in.feedback[applied++ % in.feedback.size()]));
      }
      const auto snap = replica.snapshot();
      const FrameMeta& f = in.frames[id];
      if (snap->epoch() != epoch) {
        fail("epoch " + std::to_string(epoch) + " is not reproducible offline");
        break;
      }
      const Labels expect =
          snap->predict_tags(oracle.tags[f.content], oracle.n(in.mode, f.content));
      if (sorted(expect) != sorted(st.apps[id]))
        fail("report " + agent_id(f.agent) + "/" + std::to_string(f.sequence) +
             " discovery differs from the offline prediction of epoch " +
             std::to_string(epoch));
    }
  }
}

// ---------------------------------------------------------------------------
// Set-up helpers.

/// The WAL directories of one run: every topology gets an empty one.
class WalDirs {
 public:
  explicit WalDirs(std::string root) : root_(std::move(root)) {
    stdfs::remove_all(root_);
    stdfs::create_directories(root_);
  }
  ~WalDirs() {
    std::error_code ec;
    stdfs::remove_all(root_, ec);
  }
  WalDirs(const WalDirs&) = delete;
  WalDirs& operator=(const WalDirs&) = delete;

  /// A fresh, empty WAL directory; the previous one is deleted.
  std::string fresh() {
    if (!last_.empty()) {
      std::error_code ec;
      stdfs::remove_all(last_, ec);
    }
    last_ = root_ + "/run-" + std::to_string(next_++);
    stdfs::create_directories(last_);
    return last_;
  }

 private:
  std::string root_;
  std::string last_;
  std::size_t next_ = 0;
};

core::Praxi train(const Inputs& in) {
  core::PraxiConfig config;
  config.mode = in.mode;
  config.runtime.num_threads = 1;
  core::Praxi model(config);
  std::vector<const fs::Changeset*> corpus;
  corpus.reserve(in.training.size());
  for (const auto& c : in.training) corpus.push_back(&c);
  model.train_changesets(corpus);
  return model;
}

// ---------------------------------------------------------------------------
// Aggregation across phases and passes.

struct Measured {
  std::vector<PhaseOutcome> phases;
  std::vector<double> pass_rps;   ///< closed loop: settled/s of each pass
  double measured_s = 0.0;        ///< closed loop: time ingest was measured
  std::uint64_t settled = 0;      ///< closed loop: reports settled in it
};

/// Closed loop over the workload's frames for at least `duration_s`, in
/// whole passes, each on a freshly built topology (built outside the timed
/// window): a faster service simply runs more passes, and every pass is
/// the same mix of work.
using PassCheck = std::function<void(const PhaseOutcome&, Service&)>;

Measured closed_loop(const Inputs& in, const core::Praxi& model,
                     const FrameIndex& index, WalDirs& wal, double duration_s,
                     bool trace, const PassCheck& check) {
  std::unique_ptr<Service> last;
  Measured m;
  while (m.measured_s < duration_s - 0.05 || m.phases.size() < kMinPasses) {
    last.reset();
    last = std::make_unique<Service>(in.workload, model, wal.fresh());
    PhaseConfig pc;
    pc.open_loop = false;
    pc.trace = trace;
    PhaseOutcome out = run_phase(in, *last, index, pc);
    std::uint64_t settled = 0;
    for (const std::int64_t t : out.states.settled_ns) settled += t >= 0 ? 1 : 0;
    const double elapsed = seconds_between(out.start_ns, out.end_ns);
    m.settled += settled;
    m.measured_s += elapsed;
    m.pass_rps.push_back(static_cast<double>(settled) / elapsed);
    check(out, *last);
    m.phases.push_back(std::move(out));
  }
  return m;
}

/// One checked, unmeasured closed-loop pass on a fresh topology. The
/// process's first ingest runs up to 40% slower than later ones (heap
/// growth, cold caches and connections); no measured phase should see it.
void warm_up(const Inputs& in, const core::Praxi& model, const FrameIndex& index,
             WalDirs& wal, const PassCheck& check) {
  Service svc(in.workload, model, wal.fresh());
  const PhaseOutcome out = run_phase(in, svc, index, PhaseConfig{});
  check(out, svc);
}

struct Latencies {
  std::vector<double> settle_s;
  /// settle_s cut into slices: by due second (open loop), by pass (closed).
  std::vector<std::vector<double>> settle_slices;
  std::vector<double> wire_wait_s;
  std::vector<double> lateness_s;
  double service_cpu_s = 0.0;
  std::uint64_t settled = 0;
};

Latencies latencies(const Inputs& in, const std::vector<PhaseOutcome>& phases,
                    bool open_loop) {
  Latencies l;
  for (const auto& out : phases) {
    const FrameStates& st = out.states;
    l.service_cpu_s += out.process_cpu_s - out.generator_cpu_s;
    const auto at = [&](std::int64_t ns) { return seconds_between(out.start_ns, ns); };
    if (open_loop) {
      // An open loop charges every report from its scheduled send.
      std::vector<double> due;
      due.reserve(in.frames.size());
      for (const auto& f : in.frames) due.push_back(f.due_s);
      OpenLoopAccount account(std::move(due));
      for (std::uint32_t id = 0; id < in.frames.size(); ++id) {
        if (st.sent_ns[id] >= 0) account.record_send(id, at(st.sent_ns[id]));
        if (st.settled_ns[id] >= 0) account.record_settle(id, at(st.settled_ns[id]));
        if (st.drained_ns[id] >= 0)
          l.wire_wait_s.push_back(at(st.drained_ns[id]) - account.due(id));
      }
      const auto settle = account.latency_from_due();
      l.settle_s.insert(l.settle_s.end(), settle.begin(), settle.end());
      for (auto& slice : account.latency_slices(kSliceSeconds))
        l.settle_slices.push_back(std::move(slice));
      const auto late = account.lateness();
      l.lateness_s.insert(l.lateness_s.end(), late.begin(), late.end());
      l.settled += settle.size();
      continue;
    }
    // A closed loop has no schedule: reports are timed from the actual
    // send, and each pass is one slice.
    std::vector<double>& slice = l.settle_slices.emplace_back();
    for (std::uint32_t id = 0; id < in.frames.size(); ++id) {
      if (st.sent_ns[id] < 0 || st.settled_ns[id] < 0) continue;
      ++l.settled;
      l.settle_s.push_back(seconds_between(st.sent_ns[id], st.settled_ns[id]));
      slice.push_back(l.settle_s.back());
      if (st.drained_ns[id] >= 0)
        l.wire_wait_s.push_back(seconds_between(st.sent_ns[id], st.drained_ns[id]));
    }
  }
  return l;
}

/// Micro-F1 of the served discoveries of reports due at or after
/// `min_due_s`; a screened-out window counts as an empty label set.
double f1_of(const Inputs& in, const std::vector<PhaseOutcome>& phases,
             double min_due_s) {
  LabelIds ids;
  MicroF1 f1;
  for (const auto& out : phases) {
    for (std::uint32_t id = 0; id < in.frames.size(); ++id) {
      if (out.states.sent_ns[id] < 0 || in.frames[id].due_s < min_due_s) continue;
      f1.add(ids.ids(out.states.apps[id]),
             ids.ids(in.contents[in.frames[id].content].labels()));
    }
  }
  return f1.value();
}

/// Times `calls` learn_feedback calls on `server`, cycling through the
/// workload's feedback windows from `next`.
std::vector<double> time_feedback(const Inputs& in, service::DiscoveryServer& server,
                                  std::size_t calls, std::size_t& next,
                                  std::uint64_t& failed) {
  std::vector<double> wall;
  for (std::size_t k = 0; k < calls; ++k) {
    const fs::Changeset& window = in.feedback[next++ % in.feedback.size()];
    const std::int64_t t0 = now_ns();
    try {
      server.learn_feedback(window);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench: learn_feedback failed: %s\n", e.what());
      ++failed;
    }
    wall.push_back(seconds_between(t0, now_ns()));
  }
  return wall;
}

/// Wall times of repeated Prometheus renders of the global registry.
std::vector<double> time_scrapes(double min_seconds) {
  std::vector<double> wall;
  double total = 0.0;
  while (wall.size() < kMinScrapes || total < min_seconds) {
    const std::int64_t t0 = now_ns();
    const std::string text = obs::render_prometheus(obs::MetricsRegistry::global());
    wall.push_back(seconds_between(t0, now_ns()));
    total += wall.back();
  }
  return wall;
}

/// The cluster workload has no feedback path: learn_feedback is timed on
/// an idle DiscoveryServer holding the same model, in bursts.
std::vector<std::vector<double>> idle_feedback(const Inputs& in,
                                               const core::Praxi& model,
                                               std::uint64_t& failed) {
  service::DiscoveryServer server(model, server_config());
  std::size_t next = 0;
  time_feedback(in, server, kFeedbackWarmup, next, failed);
  std::vector<std::vector<double>> bursts;
  for (int burst = 0; burst < kFeedbackBursts; ++burst) {
    if (burst > 0) std::this_thread::sleep_for(kBurstGap);
    bursts.push_back(time_feedback(in, server, kFeedbackBurst, next, failed));
  }
  return bursts;
}

std::string describe(const char* what, const SlicedSummary& s, double scale,
                     const char* unit) {
  char buffer[256];
  std::snprintf(buffer, sizeof(buffer),
                "%s: n=%zu in %zu slices, median of slice p50=%.4f %s, median "
                "of slice p%g=%.4f %s",
                what, s.count, s.slices, s.p50 * scale, unit, s.tail_percentile,
                s.tail * scale, unit);
  return buffer;
}

std::string describe(const char* what, const Summary& s, double scale,
                     const char* unit) {
  char tail[32] = "tail=max";
  if (s.tail_percentile > 0.0)
    std::snprintf(tail, sizeof(tail), "p%g", s.tail_percentile);
  char buffer[256];
  std::snprintf(buffer, sizeof(buffer),
                "%s: n=%zu p50=%.4f %s %s=%.4f %s max=%.4f %s", what, s.count,
                s.p50 * scale, unit, tail, s.tail * scale, unit,
                s.max * scale, unit);
  return buffer;
}

/// Sum over every series of a family: counter values, or histogram
/// observation counts.
double registry_total(std::string_view family) {
  double total = 0.0;
  for (const auto& f : obs::MetricsRegistry::global().collect()) {
    if (f.name != family) continue;
    for (const auto& s : f.series) {
      total += f.kind == obs::InstrumentKind::kHistogram
                   ? static_cast<double>(s.count)
                   : static_cast<double>(s.counter_value);
    }
  }
  return total;
}

std::size_t registry_series() {
  std::size_t n = 0;
  for (const auto& f : obs::MetricsRegistry::global().collect()) n += f.series.size();
  return n;
}

void write_spans(const Inputs& in, const PhaseOutcome& out,
                 const std::string& path) {
  std::ofstream file(path);
  const auto t = [&](std::int64_t ns) { return seconds_between(out.start_ns, ns); };
  for (std::size_t r = 0; r < out.rounds.size(); ++r) {
    file << "{\"span\":\"round\",\"id\":\"r" << r << "\",\"start\":"
         << t(out.rounds[r].start_ns) << ",\"end\":" << t(out.rounds[r].end_ns)
         << ",\"frames\":" << out.rounds[r].frames << "}\n";
  }
  // The first reports only: enough to read a tree, small enough to keep.
  std::size_t written = 0;
  for (std::uint32_t id = 0; id < in.frames.size() && written < 5000; ++id) {
    const FrameStates& st = out.states;
    if (st.sent_ns[id] < 0 || st.settled_ns[id] < 0) continue;
    ++written;
    file << "{\"span\":\"report\",\"id\":\"f" << id << "\",\"agent\":\""
         << agent_id(in.frames[id].agent) << "\",\"sequence\":"
         << in.frames[id].sequence << ",\"start\":" << t(st.sent_ns[id])
         << ",\"end\":" << t(st.settled_ns[id]) << "}\n";
    if (st.drained_ns[id] >= 0) {
      file << "{\"span\":\"wire\",\"id\":\"w" << id << "\",\"parent\":\"f" << id
           << "\",\"start\":" << t(st.sent_ns[id])
           << ",\"end\":" << t(st.drained_ns[id]) << "}\n";
      file << "{\"span\":\"round\",\"id\":\"r" << st.round[id]
           << "\",\"parent\":\"w" << id << "\"}\n";
    }
  }
}

}  // namespace

RunResult run_workload(const Inputs& in, const RunOptions& options) {
  RunResult result;
  const bool open_loop = in.open_rate > 0.0;
  const double open_s = options.seconds * kOpenShare;
  const double closed_s = open_loop ? options.seconds - open_s : options.seconds;
  const FrameIndex index(in);
  WalDirs wal(options.work_dir + "/wal");
  std::uint64_t never_settled = 0;
  std::uint64_t feedback_failed = 0;

  // --- set-up: train + build the topology (incl. WAL replay), repeated. ---
  std::vector<double> setup_s;
  std::unique_ptr<core::Praxi> model;
  const int repeats = options.trace ? 1 : kSetupRepeats;
  for (int r = 0; r < repeats; ++r) {
    model.reset();
    const std::string dir = wal.fresh();
    const std::int64_t t0 = now_ns();
    model = std::make_unique<core::Praxi>(train(in));
    const Service built(in.workload, *model, dir);
    setup_s.push_back(seconds_between(t0, now_ns()));
  }
  const Oracle oracle = make_oracle(in, *model);

  const PassCheck check = [&](const PhaseOutcome& out, Service& service) {
    check_phase(in, oracle, *model, service, out, result.errors, never_settled);
    result.attempted += out.send_attempts + out.feedback_wall_s.size();
    result.failed += out.refused + out.feedback_failed;
  };

  warm_up(in, *model, index, wal, check);

  // The workload's main phase: closed-loop passes for install_wave, the
  // open loop with operator feedback for learn_while_serve.
  const auto main_phase = [&](bool trace) {
    if (!open_loop) return closed_loop(in, *model, index, wal, closed_s, trace, check);
    Measured m;
    Service svc(in.workload, *model, wal.fresh());
    PhaseConfig pc;
    pc.open_loop = true;
    pc.trace = trace;
    pc.feedback = true;
    m.phases.push_back(run_phase(in, svc, index, pc));
    check(m.phases.back(), svc);
    return m;
  };

  if (!options.trace) {
    const Measured m = main_phase(false);
    Latencies lat = latencies(in, m.phases, open_loop);
    if (in.workload == Workload::kLearnWhileServe) {
      // Settles count over the whole seconds of the feedback window, the
      // contended regime.
      lat.settle_slices.resize(std::min(
          lat.settle_slices.size(),
          static_cast<std::size_t>(open_s * kFeedbackShare / kSliceSeconds)));
    }

    std::vector<std::vector<double>> feedback_slices;
    double f1 = 0.0;
    if (in.workload == Workload::kLearnWhileServe) {
      // The calls arrive at a fixed mean rate: a second's worth is a slice.
      feedback_slices =
          chunks(m.phases.front().feedback_wall_s,
                 static_cast<std::size_t>(in.feedback_rate * kSliceSeconds));
      // Reports due after the feedback window see the final epoch.
      f1 = f1_of(in, m.phases, open_s * kFeedbackShare);
    } else {
      f1 = f1_of(in, m.phases, 0.0);
      feedback_slices = idle_feedback(in, *model, feedback_failed);
      for (const auto& slice : feedback_slices) result.attempted += slice.size();
    }

    // ingest_rps always comes from a closed loop: the open-loop workload
    // runs a capacity phase on fresh topologies after the open loop.
    const Measured cap =
        open_loop ? closed_loop(in, *model, index, wal, closed_s, false, check) : Measured{};
    const Measured& closed = open_loop ? cap : m;
    const double ingest_rps = median(closed.pass_rps);

    const SlicedSummary settle =
        summarize_slices(lat.settle_slices, settle_tail(in.workload));
    const SlicedSummary fb = summarize_slices(feedback_slices, feedback_tail(in.workload));
    result.failed += never_settled + feedback_failed;
    auto& mx = result.metrics;
    mx["ingest_rps"] = {ingest_rps, "reports/s"};
    mx["cpu_us_per_report"] = {lat.service_cpu_s / static_cast<double>(lat.settled) * 1e6, "us"};
    mx["settle_p50_ms"] = {settle.p50 * 1e3, "ms"};
    mx["settle_p99_ms"] = {settle.tail * 1e3, "ms"};
    mx["feedback_p50_ms"] = {fb.p50 * 1e3, "ms"};
    mx["feedback_p99_ms"] = {fb.tail * 1e3, "ms"};
    mx["discovery_f1"] = {f1, "ratio"};
    mx["setup_s"] = {median(setup_s), "s"};
    mx["peak_rss_mb"] = {peak_rss_mb(), "MB"};
    result.notes.push_back(describe("settle", settle, 1e3, "ms"));
    result.notes.push_back(describe("feedback", fb, 1e3, "ms"));
    std::string tails = "tails (median of slices, ms):";
    for (const double pct : {60.0, 65.0, 70.0, 75.0, 90.0, 95.0, 99.0}) {
      char entry[96];
      std::snprintf(entry, sizeof(entry), " settle p%g=%.4f feedback p%g=%.4f", pct,
                    summarize_slices(lat.settle_slices, pct).tail * 1e3, pct,
                    summarize_slices(feedback_slices, pct).tail * 1e3);
      tails += entry;
    }
    result.notes.push_back(tails);
    std::string slice_p50s = "settle p50 of each slice (ms):";
    for (const auto& slice : lat.settle_slices) {
      char entry[32];
      std::snprintf(entry, sizeof(entry), " %.3f", summarize(slice).p50 * 1e3);
      slice_p50s += entry;
    }
    result.notes.push_back(slice_p50s);
    if (open_loop)
      result.notes.push_back(describe("generator lateness", summarize(lat.lateness_s), 1e3, "ms"));
    char line[200];
    std::snprintf(line, sizeof(line),
                  "setup: %d runs, median %.4f s; ingest: median of %zu passes; "
                  "%llu reports settled in %.3f s of closed loop",
                  repeats, median(setup_s), closed.phases.size(),
                  static_cast<unsigned long long>(closed.settled),
                  closed.measured_s);
    result.notes.push_back(line);
    std::uint64_t busy = 0, retransmits = 0;
    std::vector<double> round_s, gap_s;
    for (const auto& out : m.phases) {
      busy += out.busy_bounces;
      retransmits += out.retransmits;
      for (std::size_t r = 0; r < out.rounds.size(); ++r) {
        round_s.push_back(seconds_between(out.rounds[r].start_ns, out.rounds[r].end_ns));
        if (r > 0)
          gap_s.push_back(seconds_between(out.rounds[r - 1].end_ns, out.rounds[r].start_ns));
      }
    }
    const Summary rounds = summarize(round_s);
    std::snprintf(line, sizeof(line),
                  "main phase: process() p50 %.3f ms, longest %.2f ms; pause "
                  "between rounds p50 %.3f ms; busy bounces %llu, retransmits %llu",
                  rounds.p50 * 1e3, rounds.max * 1e3, summarize(gap_s).p50 * 1e3,
                  static_cast<unsigned long long>(busy),
                  static_cast<unsigned long long>(retransmits));
    result.notes.push_back(line);
    std::string setups = "setup runs (s):";
    for (const double v : setup_s) setups += " " + std::to_string(v);
    result.notes.push_back(setups);
    std::string passes = "closed-loop passes (reports/s):";
    for (const double rps : closed.pass_rps) passes += " " + std::to_string(rps);
    result.notes.push_back(passes);
  } else {
    // Traced run: the same main phase untraced (the overhead baseline),
    // then traced on a fresh topology, then the sequential replay.
    const Measured plain = main_phase(false);
    const Latencies base = latencies(in, plain.phases, open_loop);
    const double fsync0 = registry_total("praxi_wal_fsync_seconds");
    const Measured traced = main_phase(true);
    const double fsyncs = registry_total("praxi_wal_fsync_seconds") - fsync0;
    const Latencies lat = latencies(in, traced.phases, open_loop);
    const std::string scrape = obs::render_prometheus(obs::MetricsRegistry::global());
    const Summary scrape_time = summarize(time_scrapes(kScrapeSeconds));
    const std::size_t series = registry_series();

    std::vector<double> send_s, flush_s, round_s;
    std::uint64_t busy = 0, retransmits = 0, drains = 0, drained = 0, idle = 0;
    std::uint64_t processed = 0, duplicates = 0, resident = 0;
    double imbalance = 0.0;
    for (const auto& out : traced.phases) {
      send_s.insert(send_s.end(), out.send_s.begin(), out.send_s.end());
      flush_s.insert(flush_s.end(), out.flush_s.begin(), out.flush_s.end());
      busy += out.busy_bounces;
      retransmits += out.retransmits;
      processed += out.processed;
      duplicates += out.duplicates;
      resident = std::max(resident, out.resident_agents);
      imbalance = std::max(imbalance, out.load_imbalance);
      for (const auto& r : out.rounds) {
        round_s.push_back(seconds_between(r.start_ns, r.end_ns));
        if (r.frames == 0) {
          ++idle;
        } else {
          ++drains;
          drained += r.frames;
        }
      }
    }
    const PhaseOutcome& last = traced.phases.back();
    write_spans(in, last, options.work_dir + "/trace-" + workload_name(in.workload) +
                              "-" + std::to_string(options.seed) + ".jsonl");
    const double frames_per_round =
        drains > 0 ? static_cast<double>(drained) / static_cast<double>(drains) : 0.0;

    ReplayPlan plan;
    plan.batch_reports = frames_per_round / (is_cluster(in.workload) ? kShards : 1);
    plan.process_timed_in_run = !is_cluster(in.workload);
    if (in.workload == Workload::kLearnWhileServe) {
      plan.feedback_wall_s = last.feedback_wall_s;
    } else {
      for (const auto& burst : idle_feedback(in, *model, feedback_failed))
        plan.feedback_wall_s.insert(plan.feedback_wall_s.end(), burst.begin(), burst.end());
      result.attempted += plan.feedback_wall_s.size();
    }
    // The idle server's timed calls start after its warm-up calls.
    const std::size_t first =
        in.workload == Workload::kLearnWhileServe ? 0 : kFeedbackWarmup;
    for (std::size_t k = 0; k < plan.feedback_wall_s.size(); ++k)
      plan.feedback_windows.push_back(&in.feedback[(first + k) % in.feedback.size()]);
    plan.feedback_model = model.get();
    result.failed += never_settled + feedback_failed;

    auto& mx = result.metrics;
    mx = replay_layers(in, *model, plan, options.work_dir);
    const auto mean = [](const std::vector<double>& v) {
      double sum = 0.0;
      for (const double x : v) sum += x;
      return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
    };
    const Summary wire = summarize(lat.wire_wait_s);
    const Summary rounds = summarize(round_s);
    const double traced_cpu = lat.service_cpu_s / static_cast<double>(lat.settled);
    const double base_cpu = base.service_cpu_s / static_cast<double>(base.settled);
    mx["net.send_us"] = {mean(send_s) * 1e6, "us"};
    mx["net.flush_wait_ms"] = {mean(flush_s) * 1e3, "ms"};
    mx["net.wire_wait_ms_p50"] = {wire.p50 * 1e3, "ms"};
    mx["net.wire_wait_ms_p99"] = {wire.tail * 1e3, "ms"};
    mx["net.frames_per_drain"] = {frames_per_round, "frames"};
    mx["net.busy_bounces"] = {static_cast<double>(busy), "count"};
    mx["net.retransmits"] = {static_cast<double>(retransmits), "count"};
    mx["cluster.round_ms_p50"] = {rounds.p50 * 1e3, "ms"};
    mx["cluster.frames_per_round"] = {frames_per_round, "frames"};
    mx["cluster.idle_round_share"] = {round_s.empty() ? 0.0 : static_cast<double>(idle) / static_cast<double>(round_s.size()), "ratio"};
    mx["cluster.load_imbalance"] = {imbalance, "ratio"};
    if (plan.process_timed_in_run) mx["service.process_ms_p50"] = {rounds.p50 * 1e3, "ms"};
    mx["service.commits_per_report"] = {processed > 0 ? fsyncs / static_cast<double>(processed) : 0.0, "ratio"};
    mx["service.duplicates"] = {static_cast<double>(duplicates), "count"};
    mx["service.resident_agents"] = {static_cast<double>(resident), "count"};
    mx["core.epochs_published"] = {static_cast<double>(last.epoch_after - last.epoch_before), "count"};
    mx["obs.registry_series"] = {static_cast<double>(series), "count"};
    mx["obs.scrape_bytes"] = {static_cast<double>(scrape.size()), "bytes"};
    mx["obs.scrape_ms"] = {scrape_time.p50 * 1e3, "ms"};
    mx["gen.lag_p99_ms"] = {open_loop ? summarize(lat.lateness_s).tail * 1e3 : 0.0, "ms"};
    mx["trace.overhead_share"] = {base_cpu > 0 ? traced_cpu / base_cpu : 0.0, "ratio"};
    result.notes.push_back(describe("wire wait", wire, 1e3, "ms"));
    result.notes.push_back(describe("round", rounds, 1e3, "ms"));
    char line[200];
    std::snprintf(line, sizeof(line),
                  "trace overhead: traced %.2f us/report vs untraced %.2f us/report",
                  traced_cpu * 1e6, base_cpu * 1e6);
    result.notes.push_back(line);
    if (!open_loop)
      result.notes.push_back("gen.lag_p99_ms: a closed loop has no schedule; reported as 0");
  }

  result.correct = result.errors.empty();
  return result;
}

}  // namespace perfbench
