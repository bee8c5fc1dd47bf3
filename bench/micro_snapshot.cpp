// Serve-while-learn hot-path cost (docs/API.md, docs/CONCURRENCY.md).
//
// Scenario A (idle): a reader pins snapshots and predicts with no writer.
// Scenario B (contended): the same reader loop while a background trainer
// streams learn_one() updates, each publishing a fresh epoch (the worst-case
// publish cadence, snapshot_publish_every = 1).
//
// Scenario C (publish cost): per-call learn_one() + publish latency on the
// model shape the learn_while_serve workload serves — multi-label over every
// standard application (83 classes) — at cadence 1, and learn_one() and
// publish() timed apart at cadence 0. No reader holds an epoch, as in a
// server whose process() drops its pinned epoch before the next publish.
//
// The claim under test: the predict hot path is one pointer copy under the
// snapshot cell's lock — held by a publish only for a pointer swap — plus
// reads of frozen state, so its CPU cost per prediction stays flat (within
// ~10%) whether or not a trainer is publishing. On a
// single-vCPU box wall-clock per predict necessarily rises under contention
// (the trainer steals the core), which is why both wall and per-thread CPU
// time (CLOCK_THREAD_CPUTIME_ID) are reported. Publish latency comes from
// the praxi_ml_snapshot_* instruments the publish path maintains.
#include <algorithm>
#include <atomic>
#include <cstdint>
#include <ctime>
#include <iostream>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "common/stopwatch.hpp"
#include "core/praxi.hpp"
#include "eval/harness.hpp"
#include "eval/table.hpp"
#include "obs/metrics.hpp"
#include "pkg/dataset.hpp"

using namespace praxi;

namespace {

double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return double(ts.tv_sec) + double(ts.tv_nsec) * 1e-9;
}

struct RunResult {
  double wall_s = 0.0;
  double cpu_s = 0.0;  ///< reader-thread CPU time only
  std::size_t predictions = 0;
  std::uint64_t publishes = 0;  ///< epochs published during the run
};

/// Runs `predictions` single-tagset predicts through freshly pinned
/// snapshots, optionally with a trainer thread streaming updates.
RunResult run_reader(core::Praxi& model,
                     const std::vector<columbus::TagSet>& probes,
                     const std::vector<columbus::TagSet>& stream,
                     std::size_t predictions, bool with_trainer) {
  std::atomic<bool> stop{false};
  const std::uint64_t epoch_before = model.epoch();
  std::thread trainer;
  if (with_trainer) {
    trainer = std::thread([&] {
      std::size_t i = 0;
      while (!stop.load(std::memory_order_acquire)) {
        model.learn_one(stream[i++ % stream.size()]);
      }
    });
  }

  RunResult result;
  result.predictions = predictions;
  const double cpu_before = thread_cpu_s();
  Stopwatch sw;
  for (std::size_t i = 0; i < predictions; ++i) {
    // The full hot path: pin an epoch, predict through it.
    const auto snap = model.snapshot();
    const auto verdict = snap->predict_tags(probes[i % probes.size()]);
    if (verdict.empty()) std::abort();  // keep the call observable
  }
  result.wall_s = sw.elapsed_s();
  result.cpu_s = thread_cpu_s() - cpu_before;

  stop.store(true, std::memory_order_release);
  if (trainer.joinable()) trainer.join();
  result.publishes = model.epoch() - epoch_before;
  return result;
}

/// p50 and p99 of per-call microseconds.
struct Quantiles {
  double p50_us = 0.0;
  double p99_us = 0.0;
};

Quantiles quantiles(std::vector<double> us) {
  std::sort(us.begin(), us.end());
  const auto at = [&](double q) {
    return us[static_cast<std::size_t>(q * double(us.size() - 1))];
  };
  return {at(0.50), at(0.99)};
}

std::uint64_t full_copies() {
  return obs::MetricsRegistry::global().counter_value(
      "praxi_ml_snapshot_full_copies_total");
}

/// Scenario C: learn_one() + publish on a trained multi-label model over
/// every standard application.
void run_publish_cost(const bench::BenchArgs& args) {
  const auto catalog = pkg::Catalog::standard(args.seed);
  pkg::DatasetBuilder builder(catalog, args.seed);
  pkg::CollectOptions options;
  options.samples_per_app = static_cast<std::size_t>(args.scaled(40, 4));
  pkg::Dataset singles = builder.collect_dirty(options);
  singles.refresh_labels();
  const pkg::Dataset windows =
      pkg::DatasetBuilder::synthesize_multi(singles, 200, 2, 5, args.seed);

  core::PraxiConfig config;
  config.mode = core::LabelMode::kMultiLabel;
  core::Praxi trained(config);
  trained.train_changesets(eval::pointers(singles));
  std::vector<columbus::TagSet> stream;
  for (const auto& cs : windows.changesets) {
    stream.push_back(trained.extract_tags(cs));
  }

  const std::size_t updates = args.scaled(20000, 2000);
  std::vector<double> both, learn, publish;
  const std::uint64_t copies_before = full_copies();
  {
    core::Praxi model(trained);  // cadence 1: learn_one publishes
    for (std::size_t i = 0; i < updates; ++i) {
      Stopwatch sw;
      model.learn_one(stream[i % stream.size()]);
      both.push_back(sw.elapsed_s() * 1e6);
    }
  }
  const std::uint64_t copies_cadence_1 = full_copies() - copies_before;
  {
    core::Praxi model(trained);
    common::RuntimeConfig runtime = model.runtime();
    runtime.snapshot_publish_every = 0;
    model.set_runtime(runtime);
    for (std::size_t i = 0; i < updates; ++i) {
      Stopwatch sw;
      model.learn_one(stream[i % stream.size()]);
      learn.push_back(sw.elapsed_s() * 1e6);
      sw.reset();
      model.publish();
      publish.push_back(sw.elapsed_s() * 1e6);
    }
  }

  std::cout << "== learn_one + publish: multi-label, "
            << trained.labels().size() << " classes, " << updates
            << " updates per run ==\n";
  eval::TextTable table({"call", "p50 us", "p99 us"});
  const auto row = [&](const char* name, std::vector<double> us) {
    const Quantiles q = quantiles(std::move(us));
    table.add_row({name, eval::fmt_double(q.p50_us),
                   eval::fmt_double(q.p99_us)});
  };
  row("learn_one + publish (cadence 1)", std::move(both));
  row("learn_one alone (cadence 0)", std::move(learn));
  row("publish() after it", std::move(publish));
  std::cout << table.render()
            << "whole-table copies at cadence 1: " << copies_cadence_1
            << " of " << updates << " publishes\n\n";
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchArgs args = bench::parse_bench_args(argc, argv);

  const auto catalog = pkg::Catalog::subset(args.seed, 10, 2);
  pkg::DatasetBuilder builder(catalog, args.seed);
  pkg::CollectOptions options;
  options.samples_per_app =
      static_cast<std::size_t>(args.scaled(40, 4));
  const pkg::Dataset dataset = builder.collect_dirty(options);

  core::Praxi model;  // snapshot_publish_every = 1: worst-case publish rate
  model.train_changesets(eval::pointers(dataset));

  // Pre-extract everything: this bench times prediction, not Columbus.
  std::vector<columbus::TagSet> probes, stream;
  for (const auto& cs : dataset.changesets) {
    columbus::TagSet tags = model.extract_tags(cs);
    stream.push_back(tags);
    tags.labels.clear();
    probes.push_back(std::move(tags));
  }

  run_publish_cost(args);

  const std::size_t predictions = args.scaled(200000, 20000);
  std::cout << "== micro_snapshot: predict cost idle vs serve-while-learn ==\n"
            << "scale=" << args.scale << "  corpus=" << dataset.size()
            << " changesets, " << predictions << " predictions per run\n\n";

  const RunResult idle = run_reader(model, probes, stream, predictions, false);
  const RunResult busy = run_reader(model, probes, stream, predictions, true);

  const auto us_per = [](double seconds, std::size_t n) {
    return eval::fmt_double(seconds * 1e6 / double(n));
  };
  eval::TextTable table({"scenario", "wall us/predict", "cpu us/predict",
                         "epochs published"});
  table.add_row({"idle reader", us_per(idle.wall_s, idle.predictions),
                 us_per(idle.cpu_s, idle.predictions),
                 std::to_string(idle.publishes)});
  table.add_row({"trainer streaming", us_per(busy.wall_s, busy.predictions),
                 us_per(busy.cpu_s, busy.predictions),
                 std::to_string(busy.publishes)});
  std::cout << table.render() << "\n";

  const double ratio =
      (busy.cpu_s / double(busy.predictions)) /
      (idle.cpu_s / double(idle.predictions));
  std::cout << "reader cpu-per-predict ratio (contended / idle): "
            << eval::fmt_double(ratio) << "  (target: within 1.10)\n\n";

  // Publish latency straight from the instruments the publish path feeds.
  for (const auto& family : obs::MetricsRegistry::global().collect()) {
    if (family.name != "praxi_ml_snapshot_publish_seconds") continue;
    for (const auto& series : family.series) {
      if (series.count == 0) continue;
      std::cout << "praxi_ml_snapshot_publish_seconds: count=" << series.count
                << "  mean=" << eval::fmt_double(series.sum /
                                                 double(series.count) * 1e6)
                << " us\n";
    }
  }
  std::cout << "praxi_ml_snapshot_publishes_total="
            << obs::MetricsRegistry::global().counter_value(
                   "praxi_ml_snapshot_publishes_total")
            << "  final epoch=" << model.epoch() << "\n";
  return 0;
}
