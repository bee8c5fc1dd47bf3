#include "cli/cli.hpp"

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <ostream>
#include <span>
#include <stdexcept>
#include <thread>
#include <type_traits>

#include "cluster/shard_router.hpp"
#include "common/runtime_config.hpp"
#include "common/serialize.hpp"
#include "common/strings.hpp"
#include "core/praxi.hpp"
#include "eval/harness.hpp"
#include "net/socket_client.hpp"
#include "net/socket_server.hpp"
#include "obs/metrics.hpp"
#include "pkg/dataset.hpp"
#include "service/server.hpp"

namespace praxi::cli {
namespace {

/// A flag value no command can use; run() refuses it with exit 2.
struct UsageError : std::invalid_argument {
  using std::invalid_argument::invalid_argument;
};

/// The one checked parse of a numeric flag value: all of `text` must be a
/// T in range — no sign on an unsigned T, no trailing junk, no wrap-around
/// — and a floating-point value must be finite and non-negative. `flag`
/// names the flag in the refusal.
template <typename T>
T parse_number(const std::string& flag, const std::string& text) {
  T value{};
  const char* const end = text.data() + text.size();
  const auto [stop, error] = std::from_chars(text.data(), end, value);
  bool valid = error == std::errc() && stop == end;
  if constexpr (std::is_floating_point_v<T>) {
    valid = valid && std::isfinite(value) && value >= 0;
    if (!valid) {
      throw UsageError(flag + " must be a non-negative number, got '" + text +
                       "'");
    }
  } else if (!valid) {
    throw UsageError(flag + " must be an integer in [0, " +
                     std::to_string(std::numeric_limits<T>::max()) +
                     "], got '" + text + "'");
  }
  return value;
}

/// Minimal option parser: --key value / --key=value / switches /
/// positionals. A switch (`--append`) never takes the next argument as its
/// value, so `train --append FILE...` trains on every FILE.
struct Options {
  std::map<std::string, std::string> named;
  std::vector<std::string> positional;

  static Options parse(const std::vector<std::string>& args, std::size_t start,
                       const std::vector<std::string>& switches) {
    Options options;
    for (std::size_t i = start; i < args.size(); ++i) {
      const std::string& arg = args[i];
      if (arg.rfind("--", 0) == 0) {
        const auto eq = arg.find('=');
        const bool is_switch =
            std::find(switches.begin(), switches.end(), arg.substr(2)) !=
            switches.end();
        if (eq != std::string::npos) {
          options.named[arg.substr(2, eq - 2)] = arg.substr(eq + 1);
        } else if (!is_switch && i + 1 < args.size() &&
                   args[i + 1].rfind("--", 0) != 0) {
          options.named[arg.substr(2)] = args[++i];
        } else {
          options.named[arg.substr(2)] = "true";
        }
      } else if (arg == "-n" && i + 1 < args.size()) {
        options.named["n"] = args[++i];
      } else {
        options.positional.push_back(arg);
      }
    }
    return options;
  }

  std::string get(const std::string& key, const std::string& fallback) const {
    auto it = named.find(key);
    return it == named.end() ? fallback : it->second;
  }

  bool has(const std::string& key) const { return named.count(key) > 0; }

  /// The numeric flag's value (parse_number), or `fallback` when absent.
  template <typename T>
  T number(const std::string& key, T fallback) const {
    if (!has(key)) return fallback;
    return parse_number<T>(key == "n" ? "-n" : "--" + key, get(key, ""));
  }
};

int usage(std::ostream& err) {
  err << "usage: praxi-cli <command> [options]\n"
         "commands:\n"
         "  demo-corpus --out DIR [--apps N] [--samples N] [--seed N]\n"
         "  tags FILE...\n"
         "  train --model OUT [--multi] [--append] [--threads N]\n"
         "        [--snapshot-every N] FILE...\n"
         "  predict --model M [-n N] [--threads N] FILE...\n"
         "  inspect --model M\n"
         "  stats [--model M] [--format prom|json] [-n N] [--threads N]\n"
         "        [FILE...]\n"
         "  serve --model M (--max-reports N | --duration-s S) [--port P]\n"
         "        [--port-file F] [--queue-bound N] [--threads N]\n"
         "        [--snapshot-every N] [--wal-dir D]\n"
         "  cluster --model M [--shards N] (--max-reports N |\n"
         "        --duration-s S) [--port P] [--port-file F]\n"
         "        [--queue-bound N] [--threads N] [--snapshot-every N]\n"
         "        [--wal-root D]\n"
         "  report --connect HOST:PORT [--agent ID] [--timeout-ms N]\n"
         "        FILE...\n"
         "--threads: batch-engine workers (0 = all hardware threads,\n"
         "           1 = sequential; default 1)\n"
         "--snapshot-every: publish a fresh prediction snapshot after\n"
         "           every N online updates (1 = every update, the\n"
         "           default; 0 = only at train/restore boundaries;\n"
         "           common/runtime_config.hpp precedence applies)\n"
         "--metrics-out FILE: after any command, dump the metrics registry\n"
         "           (.json -> JSON, otherwise Prometheus text)\n"
         "stats: renders the metrics registry; given --model and changeset\n"
         "       files it runs the predict pipeline first so every stage\n"
         "       instrument carries data (docs/OBSERVABILITY.md)\n"
         "serve: loopback discovery service (docs/SERVICE.md); --port 0\n"
         "       picks an ephemeral port, written to --port-file; --wal-dir\n"
         "       makes exactly-once ingest survive restarts by write-ahead\n"
         "       logging settled reports there (docs/DURABILITY.md)\n"
         "cluster: sharded discovery service (docs/CLUSTER.md): agents\n"
         "       are consistent-hashed onto N DiscoveryServer shards that\n"
         "       classify concurrently, each write-ahead logging under\n"
         "       --wal-root/shard-<i>; prints the merged inventory with\n"
         "       shard and model-epoch attribution\n"
         "report: ship changeset files to a running serve instance\n";
  return 2;
}

/// Renders the process-global registry: "json" or Prometheus text.
std::string render_registry(bool json) {
  auto& registry = obs::MetricsRegistry::global();
  return json ? obs::render_json(registry) : obs::render_prometheus(registry);
}

/// One place where CLI flags become a RuntimeConfig, applied to the engine
/// last so the command line wins (common/runtime_config.hpp precedence).
common::RuntimeConfig runtime_from_options(const Options& options) {
  common::RuntimeConfig runtime;
  runtime.num_threads = options.number<std::size_t>("threads", 1);
  runtime.snapshot_publish_every = options.number(
      "snapshot-every", runtime.snapshot_publish_every);
  return runtime;
}

/// --metrics-out FILE: dump the registry after the command ran. The file
/// extension picks the format (.json -> JSON, anything else -> Prometheus).
void maybe_dump_metrics(const Options& options) {
  if (!options.has("metrics-out")) return;
  const std::string path = options.get("metrics-out", "");
  const bool json =
      path.size() >= 5 && path.compare(path.size() - 5, 5, ".json") == 0;
  // Regenerable exposition dump, not a snapshot; torn files are harmless.
  // praxi-lint: allow(raw-write)
  write_file(path, render_registry(json));
}

fs::Changeset load_changeset(const std::string& path) {
  return fs::Changeset::from_text(read_file(path));
}

/// Loads a model snapshot, decorating failures with the file and the
/// decoder's reason (which carries the offending byte offset), so a corrupt
/// or version-skewed model file produces an actionable message instead of a
/// bare "truncated input".
core::Praxi load_model(const std::string& path) {
  try {
    return core::Praxi::from_binary(read_file(path));
  } catch (const SerializeError& e) {
    throw SerializeError("cannot load model '" + path + "': " + e.what());
  }
}

int cmd_demo_corpus(const Options& options, std::ostream& out,
                    std::ostream& err) {
  if (!options.has("out")) {
    err << "demo-corpus: --out DIR is required\n";
    return 2;
  }
  const std::string dir = options.get("out", "");
  const auto apps = options.number<std::size_t>("apps", 8);
  const auto samples = options.number<std::size_t>("samples", 4);
  const auto seed = options.number<std::uint64_t>("seed", 42);

  std::filesystem::create_directories(dir);
  const auto catalog =
      pkg::Catalog::subset(seed, apps, std::min<std::size_t>(apps / 4, 10));
  pkg::DatasetBuilder builder(catalog, seed);
  pkg::CollectOptions collect;
  collect.samples_per_app = samples;
  const pkg::Dataset dataset = builder.collect_dirty(collect);

  std::map<std::string, int> counters;
  for (const auto& cs : dataset.changesets) {
    const std::string& label = cs.labels().front();
    const std::string path = dir + "/" + label + "-" +
                             std::to_string(counters[label]++) + ".changeset";
    // Regenerable text export, not a snapshot; torn files are harmless
    // and re-collected. praxi-lint: allow(raw-write)
    write_file(path, cs.to_text());
  }
  out << "wrote " << dataset.size() << " changesets ("
      << dataset.labels.size() << " applications) to " << dir << "\n";
  return 0;
}

int cmd_tags(const Options& options, std::ostream& out, std::ostream& err) {
  if (options.positional.empty()) {
    err << "tags: at least one changeset file required\n";
    return 2;
  }
  columbus::Columbus columbus;
  for (const auto& path : options.positional) {
    const auto tagset = columbus.extract(load_changeset(path));
    out << path << ":\n" << tagset.to_text();
  }
  return 0;
}

int cmd_train(const Options& options, std::ostream& out, std::ostream& err) {
  if (!options.has("model") || options.positional.empty()) {
    err << "train: --model OUT and at least one labeled changeset file "
           "required\n";
    return 2;
  }
  const std::string model_path = options.get("model", "");
  const common::RuntimeConfig runtime = runtime_from_options(options);

  core::Praxi model = [&] {
    if (options.has("append")) {
      // Incremental training continues from an existing model.
      return load_model(model_path);
    }
    core::PraxiConfig config;
    config.mode = options.has("multi") ? core::LabelMode::kMultiLabel
                                       : core::LabelMode::kSingleLabel;
    return core::Praxi(config);
  }();
  model.set_runtime(runtime);

  std::vector<fs::Changeset> changesets;
  changesets.reserve(options.positional.size());
  for (const auto& path : options.positional) {
    changesets.push_back(load_changeset(path));
    if (changesets.back().labels().empty()) {
      err << "train: " << path << " carries no label\n";
      return 1;
    }
  }
  std::vector<const fs::Changeset*> pointers;
  for (const auto& cs : changesets) pointers.push_back(&cs);
  model.train_changesets(pointers);

  // Atomic: a crash mid-save must leave the previous model intact, not a
  // torn snapshot that silently destroys the training run.
  write_file_atomic(model_path, model.to_binary());
  out << (options.has("append") ? "updated" : "trained") << " model on "
      << changesets.size() << " changesets (" << model.labels().size()
      << " labels) -> " << model_path << "\n";
  return 0;
}

int cmd_predict(const Options& options, std::ostream& out,
                std::ostream& err) {
  if (!options.has("model") || options.positional.empty()) {
    err << "predict: --model M and at least one changeset file required\n";
    return 2;
  }
  const common::RuntimeConfig runtime = runtime_from_options(options);
  const auto n = options.number<std::size_t>("n", 1);
  core::Praxi model = load_model(options.get("model", ""));
  model.set_runtime(runtime);

  // All files become one batch: the engine classifies them concurrently
  // when --threads asks for workers, in input order either way.
  std::vector<fs::Changeset> changesets;
  changesets.reserve(options.positional.size());
  for (const auto& path : options.positional) {
    changesets.push_back(load_changeset(path));
  }
  std::vector<const fs::Changeset*> batch;
  batch.reserve(changesets.size());
  for (const auto& cs : changesets) batch.push_back(&cs);
  // Snapshot-handle surface (docs/API.md): pin one epoch for the batch.
  const auto predicted = model.snapshot()->predict(
      std::span<const fs::Changeset* const>(batch), core::TopN(n),
      model.pool());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    out << options.positional[i] << ": " << join(predicted[i], " ") << "\n";
  }
  return 0;
}

int cmd_stats(const Options& options, std::ostream& out, std::ostream& err) {
  const std::string format = options.get("format", "prom");
  if (format != "prom" && format != "json") {
    err << "stats: --format must be prom or json\n";
    return 2;
  }
  // With --model and changeset files the full predict pipeline runs first
  // (output suppressed) so every stage instrument carries data; with no
  // files it renders whatever this process has recorded so far.
  if (!options.positional.empty()) {
    if (!options.has("model")) {
      err << "stats: --model M required when changeset files are given\n";
      return 2;
    }
    const common::RuntimeConfig runtime = runtime_from_options(options);
    const auto n = options.number<std::size_t>("n", 1);
    core::Praxi model = load_model(options.get("model", ""));
    model.set_runtime(runtime);
    std::vector<fs::Changeset> changesets;
    changesets.reserve(options.positional.size());
    for (const auto& path : options.positional) {
      changesets.push_back(load_changeset(path));
    }
    std::vector<const fs::Changeset*> batch;
    batch.reserve(changesets.size());
    for (const auto& cs : changesets) batch.push_back(&cs);
    model.snapshot()->predict(std::span<const fs::Changeset* const>(batch),
                              core::TopN(n), model.pool());
  }
  out << render_registry(format == "json");
  return 0;
}

int cmd_inspect(const Options& options, std::ostream& out,
                std::ostream& err) {
  if (!options.has("model")) {
    err << "inspect: --model M required\n";
    return 2;
  }
  const core::Praxi model = load_model(options.get("model", ""));
  out << "mode: "
      << (model.mode() == core::LabelMode::kSingleLabel ? "single-label"
                                                        : "multi-label")
      << "\nsize: " << format_bytes(model.model_bytes())
      << "\nlabels (" << model.labels().size() << "):\n";
  for (const auto& label : model.labels().names()) {
    out << "  " << label << "\n";
  }
  return 0;
}

/// `serve` and `cluster` run until a stop bound: --max-reports N processed
/// reports or --duration-s S seconds, whichever comes first. One of them is
/// mandatory — an unbounded server belongs in an init system, not a CLI.
struct StopBound {
  std::optional<std::uint64_t> max_reports;
  std::optional<double> duration_s;
};

/// The command's stop bound, or nullopt after saying that it has none.
std::optional<StopBound> stop_bound(const Options& options,
                                    const char* command, std::ostream& err) {
  if (!options.has("max-reports") && !options.has("duration-s")) {
    err << command
        << ": a stop bound is required: --max-reports N or --duration-s S\n";
    return std::nullopt;
  }
  StopBound bound;
  if (options.has("max-reports")) {
    bound.max_reports = options.number<std::uint64_t>("max-reports", 0);
  }
  if (options.has("duration-s")) {
    bound.duration_s = options.number("duration-s", 0.0);
  }
  return bound;
}

/// Calls `round` (one process() pass, returning its discoveries) every
/// 5 ms until `processed()` reaches the bound's report count or its
/// duration elapses, counting from this call. Returns the discoveries the
/// rounds made.
template <typename Round, typename Processed>
std::size_t run_until_stop_bound(const StopBound& bound, Round round,
                                 Processed processed) {
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::milliseconds(
          static_cast<std::int64_t>(bound.duration_s.value_or(0.0) * 1e3));
  std::size_t discoveries = 0;
  while (true) {
    discoveries += round();
    if (bound.max_reports && processed() >= *bound.max_reports) break;
    if (bound.duration_s && std::chrono::steady_clock::now() >= deadline) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return discoveries;
}

/// The loopback frontend `serve` and `cluster` share: listens on `port`
/// (0 = ephemeral) with `transport`'s knobs, writes the chosen port to
/// --port-file, and prints "<prefix>listening on 127.0.0.1:<port>".
std::unique_ptr<net::SocketServer> open_frontend(
    const Options& options, std::uint16_t port,
    const service::TransportConfig& transport, const std::string& prefix,
    std::ostream& out) {
  net::SocketServerConfig config;
  config.port = port;
  config.transport = transport;
  auto frontend = std::make_unique<net::SocketServer>(config);
  if (options.has("port-file")) {
    // Ephemeral rendezvous file (lets scripts discover the --port 0
    // ephemeral choice); regenerable, torn writes are harmless.
    // praxi-lint: allow(raw-write)
    write_file(options.get("port-file", ""),
               std::to_string(frontend->port()) + "\n");
  }
  out << prefix << "listening on 127.0.0.1:" << frontend->port() << "\n";
  return frontend;
}

/// Loopback discovery service: DiscoveryServer draining a net::SocketServer
/// until a stop bound is reached.
int cmd_serve(const Options& options, std::ostream& out, std::ostream& err) {
  if (!options.has("model")) {
    err << "serve: --model M required\n";
    return 2;
  }
  const auto bound = stop_bound(options, "serve", err);
  if (!bound) return 2;

  // Transport knobs follow docs/API.md precedence: struct defaults, then
  // the command line (applied last, so it wins).
  service::ServerConfig config;
  config.runtime = runtime_from_options(options);
  config.transport.queue_bound =
      options.number("queue-bound", config.transport.queue_bound);
  config.wal_dir = options.get("wal-dir", "");
  const auto port = options.number<std::uint16_t>("port", 0);
  // Constructing the server replays the WAL (when --wal-dir is set), so
  // every agent's dedup floor is restored strictly BEFORE the listener
  // below starts accepting frames (docs/DURABILITY.md).
  service::DiscoveryServer server(load_model(options.get("model", "")),
                                  config);

  const auto transport =
      open_frontend(options, port, config.transport, "", out);

  std::size_t discoveries = run_until_stop_bound(
      *bound, [&] { return server.process(*transport).size(); },
      [&] { return server.processed(); });
  transport->close();
  // Settle anything that arrived while shutting down.
  discoveries += server.process(*transport).size();

  const auto totals = server.totals();
  out << "processed " << totals.processed << " reports from "
      << server.ingest_stats().size() << " agents; " << discoveries
      << " discoveries";
  if (totals.duplicate > 0)
    out << " (" << totals.duplicate << " duplicates skipped)";
  if (totals.malformed > 0) out << " (" << totals.malformed << " malformed)";
  out << "\n";
  for (const auto& [agent_id, apps] : server.inventory()) {
    out << "  " << agent_id << ": " << join({apps.begin(), apps.end()}, " ")
        << "\n";
  }
  return 0;
}

/// `cluster`: N DiscoveryServer shards behind a consistent-hash ShardRouter,
/// fed by one frontend SocketServer — agents connect exactly as they connect
/// to `serve`, but classification fans out across shards (docs/CLUSTER.md).
int cmd_cluster(const Options& options, std::ostream& out, std::ostream& err) {
  if (!options.has("model")) {
    err << "cluster: --model M required\n";
    return 2;
  }
  const auto bound = stop_bound(options, "cluster", err);
  if (!bound) return 2;

  cluster::ClusterConfig config;
  config.shards = options.number<std::size_t>("shards", 2);
  if (config.shards == 0) {
    err << "cluster: --shards must be >= 1\n";
    return 2;
  }
  config.server.runtime = runtime_from_options(options);
  config.server.transport.queue_bound =
      options.number("queue-bound", config.server.transport.queue_bound);
  config.wal_root = options.get("wal-root", "");
  const auto port = options.number<std::uint16_t>("port", 0);
  // Constructing the router replays every shard's WAL (when --wal-root is
  // set) strictly BEFORE the frontend below starts accepting frames, the
  // same ordering contract as `serve` (docs/DURABILITY.md).
  cluster::ShardRouter router(load_model(options.get("model", "")), config);

  const auto frontend = open_frontend(
      options, port, config.server.transport,
      std::to_string(router.shard_count()) + "-shard cluster ", out);

  const auto processed = [&router] {
    std::uint64_t total = 0;
    for (std::size_t i = 0; i < router.shard_count(); ++i) {
      total += router.shard(i).totals().processed;
    }
    return total;
  };
  std::size_t discoveries = run_until_stop_bound(
      *bound, [&] { return router.process(*frontend).size(); }, processed);
  frontend->close();
  // Settle anything that arrived while shutting down.
  discoveries += router.process(*frontend).size();

  const auto stats = router.stats();
  const auto merged = router.merge_now();
  out << "processed " << processed() << " reports across "
      << router.shard_count() << " shards; " << discoveries << " discoveries";
  if (stats.duplicates > 0)
    out << " (" << stats.duplicates << " duplicates skipped)";
  if (stats.malformed_frames > 0)
    out << " (" << stats.malformed_frames << " malformed)";
  out << "\n";
  for (const auto& [agent_id, row] : merged.agents) {
    out << "  " << agent_id << " [shard " << row.shard << ", epoch "
        << row.model_epoch << "]: "
        << join({row.applications.begin(), row.applications.end()}, " ")
        << "\n";
  }
  router.close();
  return 0;
}

/// Ships changeset files to a running `serve` instance over a SocketClient,
/// one ChangesetReport per file, and waits for every ack.
int cmd_report(const Options& options, std::ostream& out, std::ostream& err) {
  if (!options.has("connect") || options.positional.empty()) {
    err << "report: --connect HOST:PORT and at least one changeset file "
           "required\n";
    return 2;
  }
  const std::string endpoint = options.get("connect", "");
  const auto colon = endpoint.rfind(':');
  if (colon == std::string::npos || colon + 1 == endpoint.size()) {
    err << "report: --connect expects HOST:PORT, got '" << endpoint << "'\n";
    return 2;
  }
  const auto timeout_ms = options.number<std::uint32_t>("timeout-ms", 5000);

  net::SocketClientConfig config;
  config.host = endpoint.substr(0, colon);
  config.port =
      parse_number<std::uint16_t>("--connect port", endpoint.substr(colon + 1));
  config.client_id = options.get("agent", "cli-agent");
  config.transport.connect_timeout_ms = timeout_ms;
  net::SocketClient client(config);

  std::uint64_t sequence = 0;
  for (const auto& path : options.positional) {
    service::ChangesetReport report;
    report.agent_id = config.client_id;
    report.sequence = sequence++;
    report.changeset = load_changeset(path);
    client.send(report.to_wire());
  }
  const bool settled = client.flush(timeout_ms);
  if (!settled) {
    err << "report: " << client.stats().pending_frames << " of "
        << options.positional.size() << " reports unacknowledged after "
        << timeout_ms << " ms\n";
    client.close();
    return 1;
  }
  out << "acknowledged " << options.positional.size() << " reports as agent '"
      << config.client_id << "'\n";
  client.close();
  return 0;
}

/// A command, the option names it reads (`n` is `-n`) and which of them
/// are switches. Every command also takes --metrics-out; any other name is
/// refused, so a misspelled or retired flag fails loudly instead of being
/// ignored.
struct Command {
  const char* name;
  int (*handler)(const Options&, std::ostream&, std::ostream&);
  std::vector<std::string> flags;
  std::vector<std::string> switches = {};
};

const std::vector<Command>& commands() {
  static const std::vector<Command> table = {
      {"demo-corpus", cmd_demo_corpus, {"out", "apps", "samples", "seed"}},
      {"tags", cmd_tags, {}},
      {"train",
       cmd_train,
       {"model", "threads", "snapshot-every"},
       {"multi", "append"}},
      {"predict", cmd_predict, {"model", "n", "threads"}},
      {"inspect", cmd_inspect, {"model"}},
      {"stats", cmd_stats, {"model", "format", "n", "threads"}},
      {"serve",
       cmd_serve,
       {"model", "max-reports", "duration-s", "port", "port-file",
        "queue-bound", "threads", "snapshot-every", "wal-dir"}},
      {"cluster",
       cmd_cluster,
       {"model", "shards", "max-reports", "duration-s", "port", "port-file",
        "queue-bound", "threads", "snapshot-every", "wal-root"}},
      {"report", cmd_report, {"connect", "agent", "timeout-ms"}},
  };
  return table;
}

}  // namespace

int run(const std::vector<std::string>& argv, std::ostream& out,
        std::ostream& err) {
  if (argv.empty()) return usage(err);
  const std::string& command = argv[0];
  if (command == "--help" || command == "help") {
    usage(out);
    return 0;
  }
  const auto it =
      std::find_if(commands().begin(), commands().end(),
                   [&](const Command& c) { return command == c.name; });
  if (it == commands().end()) {
    err << "unknown command: " << command << "\n";
    return usage(err);
  }
  const Options options = Options::parse(argv, 1, it->switches);
  const auto reads = [&](const std::string& name) {
    return name == "metrics-out" ||
           std::find(it->flags.begin(), it->flags.end(), name) !=
               it->flags.end() ||
           std::find(it->switches.begin(), it->switches.end(), name) !=
               it->switches.end();
  };
  for (const auto& [name, value] : options.named) {
    if (!reads(name)) {
      err << command << ": unknown option "
          << (name == "n" ? "-n" : "--" + name) << "\n";
      return usage(err);
    }
  }
  try {
    const int rc = it->handler(options, out, err);
    if (rc == 0) maybe_dump_metrics(options);
    return rc;
  } catch (const UsageError& e) {
    err << command << ": " << e.what() << "\n";
    return 2;
  } catch (const std::exception& e) {
    err << command << ": " << e.what() << "\n";
    return 1;
  }
}

int run_main(int argc, char** argv, std::ostream& out, std::ostream& err) {
  std::vector<std::string> args;
  for (int i = 1; i < argc; ++i) args.emplace_back(argv[i]);
  return run(args, out, err);
}

}  // namespace praxi::cli
