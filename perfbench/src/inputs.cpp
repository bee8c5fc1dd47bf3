#include "inputs.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <set>
#include <stdexcept>

#include "common/rng.hpp"
#include "common/serialize.hpp"
#include "pkg/catalog.hpp"
#include "pkg/dataset.hpp"
#include "service/transport.hpp"

namespace perfbench {

namespace {

namespace stdfs = std::filesystem;
using praxi::Rng;

/// The software ecosystem is fixed; the seed drives every sample drawn
/// from it.
constexpr std::uint64_t kCatalogSeed = 42;
/// Paper §IV-B: 150 dirty samples per application.
constexpr std::size_t kSamplesPerApp = 150;
/// Bumped whenever the frame cache layout or the generation recipe
/// changes, so a stale cache is never read.
constexpr std::uint32_t kCacheVersion = 1;
constexpr std::uint32_t kFrameCacheMagic = 0x50424652U;  // "PBFR"
/// Cached (workload, seed) entries kept per kind; older ones are deleted.
constexpr std::size_t kCacheEntries = 6;

// --- install_wave: closed loop over a per-pass pool of large windows. ---
constexpr std::uint32_t kInstallAgents = 4;
constexpr std::uint32_t kInstallConnections = 2;
constexpr std::uint32_t kInstallFramesPerAgent = 2000;
/// Reports each connection may have sent but not settled (README.md has
/// the sweep). At 96 a round holds about 20 ms of work next to the host
/// loop's 5 ms sleep, and the loop settles about 80% of the rate of a
/// saturated window. The sleep-bound share damps the host's speed drift:
/// 192 settles 20% more reports/s at 60% more latency, but its rate spread
/// across seeds up to twice as much. Above 512, 2 x W overflows the
/// server's 1024-frame ingest queue and busy bounces collapse the rate.
constexpr std::uint32_t kInstallWindow = 96;
constexpr std::size_t kInstallServeSamples = 8;   // per application
constexpr std::size_t kInstallMultiWindows = 332;  // 2-5 applications each
constexpr std::size_t kTrainMultiWindows = 2000;

// --- learn_while_serve: open loop into one server, online feedback. ---
constexpr std::uint32_t kServeAgents = 64;
constexpr std::uint32_t kServeConnections = 2;
/// The capacity phase's window: install_wave's, for the same reasons.
constexpr std::uint32_t kServeWindow = 96;
/// About a tenth of this topology's measured capacity (its capacity phase
/// settled 8,000-11,200 reports/s on 4 vCPUs). Far from saturation, settle
/// latency reads discovery freshness (the host loop's period, one round,
/// one WAL commit), not queueing, and the feedback thread has headroom.
constexpr double kServeRate = 1000.0;
/// Mean rate of the operators' learn_feedback calls. Over the feedback
/// window of a 20 s run (0.8 x 0.7 x 20 s) it gives 3,360 labeled windows:
/// 140 of the 150 of each held-out application, none given twice. At
/// 0.1-0.2 ms per call it holds the server state lock about 5% of the time,
/// so feedback contends with ingest without starving it.
constexpr double kFeedbackRate = 300.0;
constexpr std::size_t kHeldOutApps = 24;
constexpr std::size_t kServeSamples = 6;

/// Distinct windows the idle server learns on the cluster workload.
constexpr std::size_t kIdleFeedbackCalls = 1000;

std::uint64_t stream_seed(std::uint64_t seed, std::string_view tag) {
  return Rng(seed, tag).next();
}

/// The same window as an agent would ship it: records and interval only.
/// Ground-truth labels stay with the benchmark.
fs::Changeset strip_labels(const fs::Changeset& labeled) {
  fs::Changeset out;
  out.set_open_time(labeled.open_time_ms());
  for (const auto& record : labeled.records()) out.add(record);
  out.close(labeled.close_time_ms());
  return out;
}

void evict_old(const stdfs::path& dir, const std::string& prefix) {
  std::vector<std::pair<stdfs::file_time_type, stdfs::path>> entries;
  std::error_code ec;
  for (const auto& entry : stdfs::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind(prefix, 0) != 0) continue;
    entries.emplace_back(entry.last_write_time(ec), entry.path());
  }
  if (entries.size() <= kCacheEntries) return;
  std::sort(entries.begin(), entries.end());
  for (std::size_t i = 0; i + kCacheEntries < entries.size(); ++i) {
    stdfs::remove(entries[i].second, ec);
  }
}

pkg::Dataset load_or_make_corpus(const pkg::Catalog& catalog,
                                 std::uint64_t seed,
                                 const std::string& cache_dir) {
  const stdfs::path path = stdfs::path(cache_dir) /
                           ("corpus-v" + std::to_string(kCacheVersion) + "-" +
                            std::to_string(seed) + ".bin");
  if (stdfs::exists(path)) {
    try {
      return pkg::Dataset::load(path.string());
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench: ignoring unreadable cache %s: %s\n",
                   path.c_str(), e.what());
    }
  }
  pkg::DatasetBuilder builder(catalog, stream_seed(seed, "corpus"));
  pkg::CollectOptions options;
  options.samples_per_app = kSamplesPerApp;
  pkg::Dataset corpus = builder.collect_dirty(options);
  corpus.save(path.string());
  evict_old(cache_dir, "corpus-");
  return corpus;
}

pkg::Dataset serving_singles(const pkg::Catalog& catalog, std::uint64_t seed,
                             std::size_t samples_per_app) {
  pkg::DatasetBuilder builder(catalog, stream_seed(seed, "serve"));
  pkg::CollectOptions options;
  options.samples_per_app = samples_per_app;
  return builder.collect_dirty(options);
}

std::vector<fs::Changeset> sample_feedback(const pkg::Dataset& corpus,
                                           std::uint64_t seed,
                                           std::size_t count) {
  Rng rng(seed, "idle-feedback");
  std::vector<fs::Changeset> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    out.push_back(corpus.changesets[rng.below(corpus.changesets.size())]);
  }
  return out;
}

/// Every workload serves a multi-label model (paper §V-B): it is trained
/// on the dirty singles plus synthesized 2-5 application windows
/// (§IV-B(c)), and predicts as many applications as the quantity screen
/// infers.
void set_training(Inputs& in, pkg::Dataset singles) {
  in.mode = core::LabelMode::kMultiLabel;
  singles.refresh_labels();
  pkg::Dataset multi = pkg::DatasetBuilder::synthesize_multi(
      singles, kTrainMultiWindows, 2, 5, stream_seed(in.seed, "train-multi"));
  in.training = std::move(singles.changesets);
  for (auto& c : multi.changesets) in.training.push_back(std::move(c));
}

void make_install_wave(Inputs& in, const pkg::Catalog& catalog,
                       pkg::Dataset corpus) {
  in.agents = kInstallAgents;
  in.connections = kInstallConnections;
  in.window = kInstallWindow;
  in.feedback = sample_feedback(corpus, in.seed, kIdleFeedbackCalls);
  set_training(in, std::move(corpus));

  pkg::Dataset singles =
      serving_singles(catalog, in.seed, kInstallServeSamples);
  pkg::Dataset serve_multi = pkg::DatasetBuilder::synthesize_multi(
      singles, kInstallMultiWindows, 2, 5, stream_seed(in.seed, "serve-multi"));
  in.contents = std::move(singles.changesets);
  for (auto& c : serve_multi.changesets) in.contents.push_back(std::move(c));

  // Each connection relays its agents round-robin; every agent's
  // sequences ascend.
  Rng pick(in.seed, "install-contents");
  for (std::uint32_t k = 0; k < kInstallFramesPerAgent; ++k) {
    for (std::uint32_t a = 0; a < in.agents; ++a) {
      FrameMeta f;
      f.agent = a;
      f.sequence = k;
      f.connection = a % in.connections;
      f.content = static_cast<std::uint32_t>(pick.below(in.contents.size()));
      in.frames.push_back(f);
    }
  }
}

void make_learn_while_serve(Inputs& in, const pkg::Catalog& catalog,
                            pkg::Dataset corpus, double open_s) {
  in.agents = kServeAgents;
  in.connections = kServeConnections;
  in.window = kServeWindow;
  in.open_rate = kServeRate;
  in.feedback_rate = kFeedbackRate;

  std::vector<std::string> apps = catalog.application_names();
  Rng rng(in.seed, "held-out");
  std::shuffle(apps.begin(), apps.end(), rng);
  in.held_out.assign(apps.begin(), apps.begin() + kHeldOutApps);
  const std::set<std::string> held(in.held_out.begin(), in.held_out.end());

  // The model never sees the held-out applications at set-up; operators
  // teach it their labeled windows online.
  pkg::Dataset known;
  for (auto& c : corpus.changesets) {
    if (held.count(c.labels().front()) > 0) {
      in.feedback.push_back(std::move(c));
    } else {
      known.changesets.push_back(std::move(c));
    }
  }
  std::shuffle(in.feedback.begin(), in.feedback.end(), rng);
  set_training(in, std::move(known));

  // A Poisson process given its count over the window: that many uniform
  // arrival times, sorted.
  const double feedback_s = open_s * kFeedbackShare;
  Rng arrivals(in.seed, "feedback-arrivals");
  in.feedback_due_s.resize(static_cast<std::size_t>(in.feedback_rate * feedback_s));
  for (double& due : in.feedback_due_s) due = arrivals.uniform(0.0, feedback_s);
  std::sort(in.feedback_due_s.begin(), in.feedback_due_s.end());

  pkg::Dataset serve = serving_singles(catalog, in.seed, kServeSamples);
  in.contents = std::move(serve.changesets);
  const auto count = static_cast<std::size_t>(in.open_rate * open_s);
  std::vector<std::uint64_t> next_sequence(in.agents, 0);
  for (std::size_t i = 0; i < count; ++i) {
    FrameMeta f;
    f.agent = static_cast<std::uint32_t>(i % in.agents);
    f.sequence = next_sequence[f.agent]++;
    f.connection = f.agent % in.connections;
    f.due_s = static_cast<double>(i) / in.open_rate;
    f.content = static_cast<std::uint32_t>(rng.below(in.contents.size()));
    in.frames.push_back(f);
  }
}

std::string encode(const std::vector<fs::Changeset>& wire_contents,
                   const FrameMeta& f) {
  service::ChangesetReport report;
  report.agent_id = agent_id(f.agent);
  report.sequence = f.sequence;
  report.changeset = wire_contents[f.content];
  return report.to_wire();
}

/// Loads the cached frames when the cache matches this build's encoder;
/// otherwise encodes every frame and refreshes the cache.
void load_or_encode_frames(Inputs& in, const std::string& cache_dir,
                           double open_s) {
  std::vector<fs::Changeset> wire_contents;
  wire_contents.reserve(in.contents.size());
  for (const auto& c : in.contents) wire_contents.push_back(strip_labels(c));

  const stdfs::path path =
      stdfs::path(cache_dir) /
      ("frames-v" + std::to_string(kCacheVersion) + "-" +
       workload_name(in.workload) + "-" + std::to_string(in.seed) + "-" +
       std::to_string(std::llround(open_s * 1000.0)) + ".bin");
  if (stdfs::exists(path) && !in.frames.empty()) {
    try {
      const std::string bytes = praxi::read_file(path.string());
      const auto snap =
          praxi::open_snapshot(bytes, kFrameCacheMagic, kCacheVersion,
                               kCacheVersion);
      praxi::BinaryReader reader(snap.payload);
      const auto count = reader.get<std::uint64_t>();
      std::vector<std::string> wires;
      if (count == in.frames.size()) {
        wires.reserve(count);
        for (std::uint64_t i = 0; i < count; ++i)
          wires.push_back(reader.get_string());
        reader.require_end("perfbench frame cache");
        // The encoder may have changed since the cache was written.
        if (wires.front() == encode(wire_contents, in.frames.front())) {
          in.wires = std::move(wires);
          return;
        }
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench: ignoring unreadable cache %s: %s\n",
                   path.c_str(), e.what());
    }
  }
  in.wires.reserve(in.frames.size());
  for (const auto& f : in.frames) in.wires.push_back(encode(wire_contents, f));
  praxi::BinaryWriter writer;
  writer.put<std::uint64_t>(in.wires.size());
  for (const auto& w : in.wires) writer.put_string(w);
  // Durable before the measured run starts: dirty cache pages flushed by a
  // WAL fsync's journal commit would stall the run being measured.
  praxi::write_file_atomic(
      path.string(),
      praxi::seal_snapshot(kFrameCacheMagic, kCacheVersion, writer.take()));
  evict_old(cache_dir, "frames-v" + std::to_string(kCacheVersion) + "-" +
                           workload_name(in.workload) + "-");
}

}  // namespace

std::optional<Workload> parse_workload(std::string_view name) {
  if (name == "install_wave") return Workload::kInstallWave;
  if (name == "learn_while_serve") return Workload::kLearnWhileServe;
  return std::nullopt;
}

const char* workload_name(Workload workload) {
  switch (workload) {
    case Workload::kInstallWave:
      return "install_wave";
    case Workload::kLearnWhileServe:
      return "learn_while_serve";
  }
  return "?";
}

std::string agent_id(std::uint32_t index) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "agent-%06u", index);
  return buffer;
}

std::optional<std::uint32_t> parse_agent_id(std::string_view id) {
  constexpr std::string_view kPrefix = "agent-";
  if (id.size() <= kPrefix.size() || id.substr(0, kPrefix.size()) != kPrefix)
    return std::nullopt;
  std::uint32_t value = 0;
  const char* begin = id.data() + kPrefix.size();
  const char* end = id.data() + id.size();
  const auto [ptr, ec] = std::from_chars(begin, end, value);
  if (ec != std::errc() || ptr != end) return std::nullopt;
  return value;
}

Inputs make_inputs(Workload workload, std::uint64_t seed, double open_s,
                   const std::string& cache_dir) {
  stdfs::create_directories(cache_dir);
  const pkg::Catalog catalog = pkg::Catalog::standard(kCatalogSeed);
  Inputs in;
  in.workload = workload;
  in.seed = seed;
  pkg::Dataset corpus = load_or_make_corpus(catalog, seed, cache_dir);
  switch (workload) {
    case Workload::kInstallWave:
      make_install_wave(in, catalog, std::move(corpus));
      break;
    case Workload::kLearnWhileServe:
      make_learn_while_serve(in, catalog, std::move(corpus), open_s);
      break;
  }
  load_or_encode_frames(in, cache_dir, open_s);
  return in;
}

}  // namespace perfbench
