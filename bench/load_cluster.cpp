// Cluster load generator: the "heavy traffic" number the ROADMAP asks for
// (docs/CLUSTER.md).
//
// M simulated agents each open a real SocketClient to a frontend
// SocketServer backed by a ShardRouter with N DiscoveryServer shards, and
// ship pre-encoded changeset reports at a target aggregate rate (0 = as
// fast as the wire accepts). The router thread runs routing+processing
// rounds until every report settles. Results go to stdout as one JSON
// document: achieved end-to-end throughput plus p50/p95/p99 route-to-settle
// latency read back out of the praxi_cluster_settle_seconds histogram via
// obs::histogram_quantile — the bench measures exactly what operators will
// monitor, not a private stopwatch.
//
// --shards=1 is the single-server baseline: same wire, same model, one
// shard. Comparing it against --shards=4 on a multi-core host is the
// cluster's scaling claim. --smoke shrinks everything for CI
// (tools/check.sh bench-smoke lane).
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "cluster/shard_router.hpp"
#include "core/praxi.hpp"
#include "eval/harness.hpp"
#include "net/socket_client.hpp"
#include "net/socket_server.hpp"
#include "obs/metrics.hpp"
#include "pkg/catalog.hpp"
#include "pkg/dataset.hpp"
#include "service/transport.hpp"

using namespace praxi;
using Clock = std::chrono::steady_clock;

namespace {

struct LoadArgs {
  std::size_t agents = 8;
  std::size_t reports_per_agent = 50;
  double rate_per_s = 0.0;  ///< aggregate target; 0 = unpaced
  std::size_t shards = 4;
  std::size_t threads = 1;  ///< per-shard classification workers
  std::uint64_t seed = 42;
  bool smoke = false;
};

LoadArgs parse_args(int argc, char** argv) {
  LoadArgs args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--agents=", 0) == 0) {
      args.agents = std::strtoull(arg.c_str() + 9, nullptr, 10);
    } else if (arg.rfind("--reports=", 0) == 0) {
      args.reports_per_agent = std::strtoull(arg.c_str() + 10, nullptr, 10);
    } else if (arg.rfind("--rate=", 0) == 0) {
      args.rate_per_s = std::strtod(arg.c_str() + 7, nullptr);
    } else if (arg.rfind("--shards=", 0) == 0) {
      args.shards = std::strtoull(arg.c_str() + 9, nullptr, 10);
    } else if (arg.rfind("--threads=", 0) == 0) {
      args.threads = std::strtoull(arg.c_str() + 10, nullptr, 10);
    } else if (arg.rfind("--seed=", 0) == 0) {
      args.seed = std::strtoull(arg.c_str() + 7, nullptr, 10);
    } else if (arg == "--smoke") {
      args.smoke = true;
      args.agents = 2;
      args.reports_per_agent = 8;
      args.shards = 2;
    } else if (arg == "--help" || arg == "-h") {
      std::printf(
          "usage: %s [--agents=M] [--reports=K] [--rate=R] [--shards=N]\n"
          "          [--threads=T] [--seed=S] [--smoke]\n"
          "  --agents=M   simulated agents, each on its own SocketClient\n"
          "               (default 8)\n"
          "  --reports=K  reports per agent (default 50)\n"
          "  --rate=R     aggregate target reports/sec, paced per agent\n"
          "               (default 0 = unpaced)\n"
          "  --shards=N   DiscoveryServer shards behind the router\n"
          "               (default 4; 1 = single-server baseline)\n"
          "  --threads=T  per-shard classification workers (default 1)\n"
          "  --smoke      tiny CI configuration (2 agents x 8 reports,\n"
          "               2 shards)\n",
          argv[0]);
      std::exit(0);
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      std::exit(2);
    }
  }
  if (args.agents == 0 || args.reports_per_agent == 0 || args.shards == 0) {
    std::fprintf(stderr, "--agents, --reports, --shards must be >= 1\n");
    std::exit(2);
  }
  return args;
}

/// One agent's paced send loop over its own socket connection.
void run_agent(std::uint16_t port, std::size_t agent_index,
               const std::vector<std::string>& wires, double interval_s,
               std::atomic<std::uint64_t>& sent) {
  net::SocketClientConfig config;
  config.port = port;
  config.client_id = "load-agent-" + std::to_string(agent_index);
  net::SocketClient client(config);
  auto next = Clock::now();
  for (const auto& wire : wires) {
    if (interval_s > 0.0) {
      next += std::chrono::duration_cast<Clock::duration>(
          std::chrono::duration<double>(interval_s));
      std::this_thread::sleep_until(next);
    }
    client.send(wire);
    sent.fetch_add(1, std::memory_order_relaxed);
  }
  // Pump until the wire-level ack for every frame arrived (delivery into
  // the frontend queue; cluster settling is measured router-side).
  while (!client.flush(100)) {
  }
  client.close();
}

std::string fmt(double v) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.6f", v);
  return buffer;
}

}  // namespace

int main(int argc, char** argv) {
  const LoadArgs args = parse_args(argc, argv);

  // Synthetic corpus + trained model, the transport-test recipe: small but
  // real changesets so classification cost is representative.
  const auto catalog =
      pkg::Catalog::subset(args.seed, args.smoke ? 4 : 8, 0);
  pkg::DatasetBuilder builder(catalog, args.seed + 7);
  pkg::CollectOptions collect;
  collect.samples_per_app = args.smoke ? 2 : 4;
  const pkg::Dataset dataset = builder.collect_dirty(collect);
  core::Praxi model;
  model.train_changesets(eval::pointers(dataset));

  cluster::ClusterConfig cluster_config;
  cluster_config.shards = args.shards;
  cluster_config.server.runtime.num_threads = args.threads;
  cluster::ShardRouter router(model, cluster_config);

  net::SocketServerConfig frontend_config;
  frontend_config.transport.queue_bound = 8192;
  net::SocketServer frontend(frontend_config);

  // Pre-encode every agent's report stream so send loops measure the wire,
  // not serialization.
  std::vector<std::vector<std::string>> streams(args.agents);
  std::size_t next_changeset = 0;
  for (std::size_t a = 0; a < args.agents; ++a) {
    streams[a].reserve(args.reports_per_agent);
    for (std::size_t seq = 0; seq < args.reports_per_agent; ++seq) {
      service::ChangesetReport report;
      report.agent_id = "load-agent-" + std::to_string(a);
      report.sequence = seq;
      report.changeset =
          dataset.changesets[next_changeset++ % dataset.changesets.size()];
      streams[a].push_back(report.to_wire());
    }
  }
  const std::uint64_t expected =
      static_cast<std::uint64_t>(args.agents) * args.reports_per_agent;
  const double interval_s =
      args.rate_per_s > 0.0
          ? static_cast<double>(args.agents) / args.rate_per_s
          : 0.0;

  const auto start = Clock::now();
  std::atomic<std::uint64_t> sent{0};
  std::vector<std::thread> agents;
  agents.reserve(args.agents);
  for (std::size_t a = 0; a < args.agents; ++a) {
    agents.emplace_back(run_agent, frontend.port(), a,
                        std::cref(streams[a]), interval_s, std::ref(sent));
  }

  const auto settled = [&router] {
    std::uint64_t total = 0;
    for (std::size_t i = 0; i < router.shard_count(); ++i) {
      total += router.shard(i).processed() + router.shard(i).duplicates();
    }
    return total;
  };
  // Generous hard stop so a wedged run fails loudly instead of hanging CI.
  const auto deadline = start + std::chrono::seconds(args.smoke ? 60 : 600);
  while (settled() < expected && Clock::now() < deadline) {
    if (router.process(frontend).empty()) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }
  const auto stop = Clock::now();
  for (auto& agent : agents) agent.join();
  frontend.close();

  const double wall_s = std::chrono::duration<double>(stop - start).count();
  const std::uint64_t processed = settled();
  auto& histogram = obs::MetricsRegistry::global().histogram(
      "praxi_cluster_settle_seconds",
      "Route-to-settle latency through the owning shard (queue wait + "
      "classification + WAL fsync).",
      obs::latency_buckets());
  const auto stats = router.stats();
  const auto merged = router.merge_now();
  router.close();

  if (processed < expected) {
    std::fprintf(stderr, "load_cluster: only %llu of %llu reports settled\n",
                 static_cast<unsigned long long>(processed),
                 static_cast<unsigned long long>(expected));
    return 1;
  }

  std::printf(
      "{\n"
      "  \"bench\": \"load_cluster\",\n"
      "  \"smoke\": %s,\n"
      "  \"shards\": %zu,\n"
      "  \"agents\": %zu,\n"
      "  \"reports_per_agent\": %zu,\n"
      "  \"target_rate_per_s\": %s,\n"
      "  \"reports_sent\": %llu,\n"
      "  \"reports_settled\": %llu,\n"
      "  \"duplicates\": %llu,\n"
      "  \"inventory_agents\": %zu,\n"
      "  \"ring_imbalance\": %s,\n"
      "  \"wall_seconds\": %s,\n"
      "  \"achieved_throughput_per_s\": %s,\n"
      "  \"settle_latency_seconds\": {\n"
      "    \"count\": %llu,\n"
      "    \"mean\": %s,\n"
      "    \"p50\": %s,\n"
      "    \"p95\": %s,\n"
      "    \"p99\": %s\n"
      "  }\n"
      "}\n",
      args.smoke ? "true" : "false", args.shards, args.agents,
      args.reports_per_agent, fmt(args.rate_per_s).c_str(),
      static_cast<unsigned long long>(sent.load()),
      static_cast<unsigned long long>(processed),
      static_cast<unsigned long long>(stats.duplicates),
      merged.agents.size(), fmt(router.ring().imbalance()).c_str(),
      fmt(wall_s).c_str(),
      fmt(wall_s > 0.0 ? static_cast<double>(processed) / wall_s : 0.0)
          .c_str(),
      static_cast<unsigned long long>(histogram.count()),
      fmt(histogram.count() > 0
              ? histogram.sum() / static_cast<double>(histogram.count())
              : 0.0)
          .c_str(),
      fmt(obs::histogram_quantile(histogram, 0.50)).c_str(),
      fmt(obs::histogram_quantile(histogram, 0.95)).c_str(),
      fmt(obs::histogram_quantile(histogram, 0.99)).c_str());
  return 0;
}
