// praxi_perfbench: one run of one benchmark workload against the discovery
// service (perfbench/README.md). Normally started through perfbench/run.py:
//
//   praxi_perfbench --workload install_wave --seed 1 --seconds 10
//                   --trace 0 --work-dir perfbench/.work
//
// The last line of standard output is the result object:
//   {"correct": true, "attempted": N, "failed": F, "metrics": {...}}
// with the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). A failed correctness check prints the errors, reports no
// metrics and exits 1. `--prepare 1` only generates (and caches) the
// inputs, so that the measured process never pays for generating them.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>

#include <unistd.h>

#include "host.hpp"
#include "inputs.hpp"

namespace {

void usage() {
  std::fprintf(stderr,
               "usage: praxi_perfbench --workload "
               "install_wave|learn_while_serve\n"
               "                       --seed N --seconds S --trace 0|1 "
               "--work-dir DIR [--prepare 1]\n");
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload_arg;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  int prepare = 0;
  std::string work_dir;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      workload_arg = value;
    } else if (key == "--seed") {
      seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      trace = std::atoi(value.c_str());
    } else if (key == "--prepare") {
      prepare = std::atoi(value.c_str());
    } else if (key == "--work-dir") {
      work_dir = value;
    } else {
      usage();
      return 2;
    }
  }
  const auto workload = perfbench::parse_workload(workload_arg);
  if (!workload || seconds <= 0.0 || (trace != 0 && trace != 1) ||
      work_dir.empty() || argc % 2 != 1) {
    usage();
    return 2;
  }

  // A run that wedges must still end in bounded time, without a result:
  // SIGALRM's default action ends the process.
  alarm(170);

  try {
    const std::string run_dir = work_dir + "/run-" + std::string(workload_arg) +
                                "-" + std::to_string(seed);
    std::filesystem::create_directories(run_dir);
    const auto t0 = std::chrono::steady_clock::now();
    // Inputs for the open-loop share of the run (see host.cpp).
    const perfbench::Inputs inputs = perfbench::make_inputs(
        *workload, seed, seconds * perfbench::kOpenShare, work_dir + "/cache");
    if (prepare == 1) return 0;
    std::fprintf(stderr, "perfbench: %s seed %llu: %zu reports, %zu windows, "
                         "inputs ready in %.2f s\n",
                 workload_arg.c_str(), static_cast<unsigned long long>(seed),
                 inputs.frames.size(), inputs.contents.size(),
                 std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
                     .count());

    perfbench::RunOptions options;
    options.seed = seed;
    options.seconds = seconds;
    options.trace = trace == 1;
    options.work_dir = run_dir;
    const perfbench::RunResult result = perfbench::run_workload(inputs, options);
    std::filesystem::remove_all(run_dir + "/wal");

    for (const auto& note : result.notes) std::printf("# %s\n", note.c_str());
    for (const auto& error : result.errors)
      std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", error.c_str());
    std::string metrics;
    if (result.correct) {
      for (const auto& [name, metric] : result.metrics) {
        char value[64];
        std::snprintf(value, sizeof(value), "%.17g", metric.value);
        if (!metrics.empty()) metrics += ", ";
        metrics += "\"" + json_escape(name) + "\": {\"value\": " + value +
                   ", \"unit\": \"" + json_escape(metric.unit) + "\"}";
      }
    }
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {%s}}\n",
                result.correct ? "true" : "false",
                static_cast<unsigned long long>(result.attempted),
                static_cast<unsigned long long>(result.failed), metrics.c_str());
    std::fflush(stdout);
    return result.correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
