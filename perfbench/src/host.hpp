// The in-process service host: the discovery service in its production
// topology, driven over the real loopback socket path.
//
// install_wave runs the `praxi-cli cluster` topology (a frontend
// net::SocketServer feeding a cluster::ShardRouter with two DiscoveryServer
// shards); learn_while_serve runs the `praxi-cli serve` topology (one
// DiscoveryServer draining a SocketServer). The host loop is
// the CLI's: call process(), then sleep 5 ms (src/cli/cli.cpp cmd_serve
// and cmd_cluster; moving that loop into the library is future work, so
// it is duplicated here).
//
// Settle is observed on the server side: a report settles when the
// process() call whose drain() handed it out returns having acknowledged
// it. SocketServer sends the wire ack at enqueue time, so a client cannot
// see settles; that is why the generator runs in this process.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "inputs.hpp"
#include "stats.hpp"

namespace perfbench {

struct RunOptions {
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch space of this run (WAL directories, trace spans).
  std::string work_dir;
};

/// A metric as printed: value and unit.
struct Metric {
  double value = 0.0;
  std::string unit;
};

struct RunResult {
  bool correct = true;
  std::vector<std::string> errors;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, Metric> metrics;
  /// Human-readable lines (sample counts, chosen percentiles) printed
  /// before the result line.
  std::vector<std::string> notes;
};

/// Runs one workload end to end. With options.trace the result holds the
/// per-layer metrics, otherwise the end-to-end metrics.
RunResult run_workload(const Inputs& inputs, const RunOptions& options);

}  // namespace perfbench
