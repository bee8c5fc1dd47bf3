#include "replay.hpp"

#include <algorithm>
#include <chrono>
#include <filesystem>

#include "common/hash.hpp"
#include "core/discovery_service.hpp"
#include "core/tagset_store.hpp"
#include "service/server.hpp"
#include "service/transport.hpp"
#include "service/wal.hpp"
#include "stats.hpp"

namespace perfbench {

namespace {

namespace stdfs = std::filesystem;
using Clock = std::chrono::steady_clock;

/// Reports replayed per layer: enough for stable means, small enough to
/// keep the traced run short.
constexpr std::size_t kReplayReports = 2000;
constexpr std::size_t kLearnUpdates = 300;
constexpr std::size_t kPublishes = 20;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double per(double total, std::size_t n) {
  return n == 0 ? 0.0 : total / static_cast<double>(n);
}

}  // namespace

std::map<std::string, Metric> replay_layers(const Inputs& in,
                                            const core::Praxi& model,
                                            const ReplayPlan& plan,
                                            const std::string& work_dir) {
  std::map<std::string, Metric> mx;
  const std::size_t n = std::min(kReplayReports, in.wires.size());
  const std::size_t stride = std::max<std::size_t>(1, in.wires.size() / n);
  std::vector<const std::string*> wires;
  for (std::size_t i = 0; i < in.wires.size() && wires.size() < n; i += stride)
    wires.push_back(&in.wires[i]);

  // common: the checksum over every wire byte.
  std::size_t bytes = 0;
  auto t0 = Clock::now();
  for (const auto* w : wires) {
    praxi::crc32c(*w);
    bytes += w->size();
  }
  const double crc_s = since(t0);
  mx["common.crc32c_mb_per_s"] = {crc_s > 0 ? static_cast<double>(bytes) / crc_s / 1e6 : 0.0, "MB/s"};
  std::size_t all_bytes = 0;
  for (const auto& w : in.wires) all_bytes += w.size();
  mx["common.wire_bytes_per_report"] = {per(static_cast<double>(all_bytes), in.wires.size()), "bytes"};

  // service: decode.
  std::vector<service::ChangesetReport> reports;
  reports.reserve(wires.size());
  t0 = Clock::now();
  for (const auto* w : wires) reports.push_back(service::ChangesetReport::from_wire(*w));
  const double decode_s = since(t0);

  // core: the quantity screen.
  const core::DiscoveryServiceConfig quantity;
  std::vector<std::size_t> q(reports.size(), 0);
  t0 = Clock::now();
  for (std::size_t i = 0; i < reports.size(); ++i) {
    if (!reports[i].changeset.empty())
      q[i] = core::DiscoveryService::infer_quantity(reports[i].changeset, quantity);
  }
  const double screen_s = since(t0);

  // columbus + ml: extract and predict the windows that pass the screen.
  const auto snap = model.snapshot();
  std::vector<columbus::TagSet> tagsets;
  std::vector<std::size_t> counts;
  std::size_t tags = 0;
  t0 = Clock::now();
  for (std::size_t i = 0; i < reports.size(); ++i) {
    if (q[i] == 0) continue;
    tagsets.push_back(snap->extract_tags(reports[i].changeset));
    counts.push_back(in.mode == core::LabelMode::kSingleLabel ? 1 : q[i]);
  }
  const double extract_s = since(t0);
  for (const auto& t : tagsets) tags += t.size();
  t0 = Clock::now();
  for (std::size_t i = 0; i < tagsets.size(); ++i) snap->predict_tags(tagsets[i], counts[i]);
  const double predict_s = since(t0);

  // core: the tagset store.
  core::TagsetStore store;
  double store_s = 0.0;
  for (const auto& t : tagsets) {
    columbus::TagSet copy = t;
    t0 = Clock::now();
    store.add(std::move(copy));
    store_s += since(t0);
  }

  // service: the WAL, appended per report and committed per batch.
  const std::string wal_dir = work_dir + "/replay-wal";
  stdfs::remove_all(wal_dir);
  const auto batch = static_cast<std::size_t>(std::max(1.0, plan.batch_reports + 0.5));
  double append_s = 0.0, commit_s = 0.0;
  std::size_t commits = 0, wal_bytes = 0;
  {
    service::WalConfig config;
    config.dir = wal_dir;
    service::WriteAheadLog wal(config);
    for (std::size_t i = 0; i < reports.size(); ++i) {
      t0 = Clock::now();
      wal.append(reports[i].agent_id, reports[i].sequence,
                 service::SettleOutcome::kProcessed);
      append_s += since(t0);
      if ((i + 1) % batch == 0 || i + 1 == reports.size()) {
        t0 = Clock::now();
        wal.commit();
        commit_s += since(t0);
        ++commits;
      }
    }
    wal_bytes = wal.live_bytes();
  }
  // service: startup replay of the log just written.
  double replay_s = 0.0;
  {
    service::WalConfig config;
    config.dir = wal_dir;
    t0 = Clock::now();
    service::WriteAheadLog replayed(config);
    replay_s = since(t0);
  }
  stdfs::remove_all(wal_dir);

  // service: one DiscoveryServer::process per batch, where the run could
  // not time it from outside (the shards live inside the router).
  if (!plan.process_timed_in_run) {
    const std::string dir = work_dir + "/replay-server";
    stdfs::remove_all(dir);
    service::ServerConfig config;
    config.runtime.num_threads = 1;
    config.wal_dir = dir;
    std::vector<double> process_s;
    {
      service::DiscoveryServer server(model, config);
      service::MessageBus bus;
      for (std::size_t i = 0; i < wires.size(); i += batch) {
        for (std::size_t j = i; j < std::min(wires.size(), i + batch); ++j)
          bus.send(*wires[j]);
        t0 = Clock::now();
        server.process(bus);
        process_s.push_back(since(t0));
      }
    }
    stdfs::remove_all(dir);
    mx["service.process_ms_p50"] = {summarize(process_s).p50 * 1e3, "ms"};
  }

  // core: online learning, with the publish split out.
  core::Praxi learner = *plan.feedback_model;
  common::RuntimeConfig quiet = learner.runtime();
  quiet.snapshot_publish_every = 0;
  learner.set_runtime(quiet);
  std::vector<columbus::TagSet> labeled;
  for (std::size_t k = 0; k < kLearnUpdates && k < in.feedback.size(); ++k)
    labeled.push_back(learner.extract_tags(in.feedback[k]));
  t0 = Clock::now();
  for (const auto& t : labeled) learner.learn_one(t);
  const double learn_s = since(t0);
  t0 = Clock::now();
  for (std::size_t k = 0; k < kPublishes; ++k) learner.publish();
  const double publish_s = since(t0);

  // service: learn_feedback's wait for the state lock, as its wall time
  // minus the same extract + learn_one (+ publish) replayed alone.
  core::Praxi replica = *plan.feedback_model;
  common::RuntimeConfig serving = replica.runtime();
  serving.snapshot_publish_every = 1;
  serving.num_threads = 1;
  replica.set_runtime(serving);
  std::vector<double> wait_s;
  for (std::size_t k = 0; k < plan.feedback_windows.size(); ++k) {
    t0 = Clock::now();
    replica.learn_one(replica.extract_tags(*plan.feedback_windows[k]));
    wait_s.push_back(std::max(0.0, plan.feedback_wall_s[k] - since(t0)));
  }

  const std::size_t r = reports.size();
  const double stage_total = decode_s + screen_s + extract_s + predict_s +
                             store_s + append_s + commit_s;
  mx["service.decode_us"] = {per(decode_s, r) * 1e6, "us"};
  mx["core.screen_us"] = {per(screen_s, r) * 1e6, "us"};
  mx["columbus.extract_us"] = {per(extract_s, tagsets.size()) * 1e6, "us"};
  mx["columbus.tags_per_report"] = {per(static_cast<double>(tags), tagsets.size()), "count"};
  mx["ml.predict_us"] = {per(predict_s, tagsets.size()) * 1e6, "us"};
  mx["core.store_add_us"] = {per(store_s, tagsets.size()) * 1e6, "us"};
  mx["core.store_bytes"] = {per(static_cast<double>(store.total_bytes()), store.size()), "bytes"};
  mx["service.wal_append_us"] = {per(append_s, r) * 1e6, "us"};
  mx["service.wal_commit_us"] = {per(commit_s, commits) * 1e6, "us"};
  mx["service.wal_bytes_per_report"] = {per(static_cast<double>(wal_bytes), r), "bytes"};
  mx["service.wal_replay_ms"] = {replay_s * 1e3, "ms"};
  mx["core.learn_one_us"] = {per(learn_s, labeled.size()) * 1e6, "us"};
  mx["core.publish_us"] = {per(publish_s, kPublishes) * 1e6, "us"};
  mx["core.model_bytes"] = {static_cast<double>(model.model_bytes()), "bytes"};
  mx["service.feedback_wait_ms_p99"] = {summarize(wait_s).tail * 1e3, "ms"};
  mx["budget.decode_extract_share"] = {stage_total > 0 ? (decode_s + extract_s) / stage_total : 0.0, "ratio"};
  return mx;
}

}  // namespace perfbench
