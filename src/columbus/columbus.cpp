#include "columbus/columbus.hpp"

#include <algorithm>
#include <unordered_map>

#include "columbus/frequency_trie.hpp"
#include "common/strings.hpp"
#include "obs/metrics.hpp"
#include "obs/scoped_timer.hpp"

namespace praxi::columbus {

namespace {

// Stage instruments (docs/OBSERVABILITY.md): handles cached in statics so
// the per-changeset path pays only relaxed atomic ops.
obs::Counter& extractions_counter() {
  static obs::Counter& c = obs::MetricsRegistry::global().counter(
      "praxi_columbus_extractions_total", "Tagset extractions performed");
  return c;
}

obs::Histogram& trie_build_seconds() {
  static obs::Histogram& h = obs::MetricsRegistry::global().histogram(
      "praxi_columbus_trie_build_seconds",
      "Tokenize + intern + arena-trie construction per extraction",
      obs::latency_buckets());
  return h;
}

obs::Histogram& tag_extract_seconds() {
  static obs::Histogram& h = obs::MetricsRegistry::global().histogram(
      "praxi_columbus_tag_extract_seconds",
      "Trie tag ranking + merge per extraction", obs::latency_buckets());
  return h;
}

obs::Histogram& tags_count_histogram() {
  static obs::Histogram& h = obs::MetricsRegistry::global().histogram(
      "praxi_columbus_tags_count", "Tags produced per extraction",
      obs::count_buckets());
  return h;
}

// Arena-pipeline instruments: trie size, scratch footprint, and warm-reuse
// hits (an extraction that grew no scratch buffer — the steady state).
obs::Gauge& arena_nodes_gauge() {
  static obs::Gauge& g = obs::MetricsRegistry::global().gauge(
      "praxi_columbus_arena_nodes",
      "Arena-trie nodes (FT_name + FT_exec) in the most recent extraction");
  return g;
}

obs::Gauge& arena_bytes_gauge() {
  static obs::Gauge& g = obs::MetricsRegistry::global().gauge(
      "praxi_columbus_arena_bytes",
      "Bytes owned by the reporting thread's extraction scratch");
  return g;
}

obs::Counter& scratch_reuse_counter() {
  static obs::Counter& c = obs::MetricsRegistry::global().counter(
      "praxi_columbus_arena_scratch_reuse_total",
      "Extractions that completed with zero scratch growth (warm reuse)");
  return c;
}

TagSet materialize(std::span<const TagView> ranked) {
  TagSet ts;
  ts.tags.reserve(ranked.size());
  for (const TagView& tag : ranked) {
    ts.tags.push_back(Tag{std::string(tag.text), tag.frequency});
  }
  return ts;
}

/// The one changeset -> ranked tags path, for both an owning Changeset
/// (ChangeRecord) and a decoded wire view (ChangeRecordView).
template <typename Records>
std::span<const TagView> rank_records(const Columbus& columbus,
                                      const Records& records,
                                      ExtractionScratch& scratch) {
  scratch.begin();
  for (const auto& rec : records) {
    scratch.paths.push_back(PathRef{rec.path, rec.executable()});
  }
  return columbus.extract_ranked(scratch);
}

/// Interns one token and sizes both count arrays to cover its id.
std::uint32_t intern_segment(std::string_view token,
                             ExtractionScratch& scratch) {
  const std::uint32_t id = scratch.interner.intern(token);
  if (id >= scratch.name_counts.size()) {
    scratch.name_counts.resize(id + 1, 0);
    scratch.exec_counts.resize(id + 1, 0);
  }
  return id;
}

/// Adds one FT_name count per token of directory `dir`, tokenizing and
/// interning it only the first time this extraction sees it.
void count_directory(const Tokenizer& tokenizer, std::string_view dir,
                     ExtractionScratch& scratch) {
  const std::uint32_t known = scratch.dirs.size();
  const std::uint32_t id = scratch.dirs.intern(dir);
  if (id == known) {  // first path under this directory
    scratch.tokens.clear();
    tokenizer.tokenize_views(dir, scratch.arena, scratch.tokens);
    for (const std::string_view token : scratch.tokens) {
      scratch.dir_ids.push_back(intern_segment(token, scratch));
    }
    scratch.dir_ends.push_back(
        static_cast<std::uint32_t>(scratch.dir_ids.size()));
  }
  const std::uint32_t begin = id == 0 ? 0 : scratch.dir_ends[id - 1];
  for (std::uint32_t i = begin; i < scratch.dir_ends[id]; ++i) {
    ++scratch.name_counts[scratch.dir_ids[i]];
  }
}

}  // namespace

Columbus::Columbus(ColumbusConfig config) : config_(config) {}

TagSet Columbus::extract(const fs::Changeset& changeset) const {
  return extract(changeset, tls_extraction_scratch());
}

TagSet Columbus::extract(const fs::Changeset& changeset,
                         ExtractionScratch& scratch) const {
  TagSet ts = materialize(extract_ranked(changeset, scratch));
  ts.labels = changeset.labels();
  return ts;
}

std::vector<TagSet> Columbus::extract(
    std::span<const fs::Changeset* const> changesets, ThreadPool* pool) const {
  // Items are independent (§III-B), so they run concurrently on `pool`.
  // Each worker reuses its own thread-local scratch: pool threads are
  // long-lived, so after one warmup item per worker the batch's pipeline
  // work allocates nothing beyond the output tagsets.
  std::vector<TagSet> out(changesets.size());
  parallel_for(pool, changesets.size(), [&](std::size_t i) {
    out[i] = extract(*changesets[i], tls_extraction_scratch());
  });
  return out;
}

TagSet Columbus::extract_from_paths(const std::vector<std::string>& paths,
                                    const std::vector<bool>& executable) const {
  return extract_from_paths(paths, executable, tls_extraction_scratch());
}

TagSet Columbus::extract_from_paths(const std::vector<std::string>& paths,
                                    const std::vector<bool>& executable,
                                    ExtractionScratch& scratch) const {
  scratch.begin();
  for (std::size_t i = 0; i < paths.size(); ++i) {
    scratch.paths.push_back(
        PathRef{paths[i], i < executable.size() && executable[i]});
  }
  return materialize(extract_ranked(scratch));
}

std::span<const TagView> Columbus::extract_ranked(
    const fs::Changeset& changeset, ExtractionScratch& scratch) const {
  return rank_records(*this, changeset.records(), scratch);
}

std::span<const TagView> Columbus::extract_ranked(
    const fs::ChangesetView& changeset, ExtractionScratch& scratch) const {
  return rank_records(*this, changeset.records, scratch);
}

std::span<const TagView> Columbus::extract_ranked(
    ExtractionScratch& scratch) const {
  extractions_counter().inc();
  const std::size_t footprint_before = scratch.capacity_bytes();

  obs::ScopedTimer trie_timer(trie_build_seconds());
  // Pass 1: count every surviving segment of every path by interned id.
  // The tokenizer splits on '/' and drops empty segments, so a path's
  // tokens are its directory's tokens followed by the token of the part
  // after its last '/'. Each distinct directory is tokenized and interned
  // once; every path under it adds one count per cached id and tokenizes
  // only its last part — which is also the basename FT_exec indexes.
  for (const PathRef& ref : scratch.paths) {
    std::string_view last = ref.path;
    const std::size_t slash = ref.path.rfind('/');
    if (slash != std::string_view::npos) {
      count_directory(tokenizer_, ref.path.substr(0, slash), scratch);
      last.remove_prefix(slash + 1);
    }
    const std::string_view token =
        tokenizer_.segment_token(last, scratch.arena);
    if (token.empty()) continue;
    const std::uint32_t id = intern_segment(token, scratch);
    ++scratch.name_counts[id];
    if (ref.executable) ++scratch.exec_counts[id];
  }

  // Pass 2: build the tries from the distinct segments, one weighted
  // insert per segment (frequencies are additive, so this is bit-identical
  // to inserting every occurrence).
  const std::uint32_t unique = scratch.interner.size();
  for (std::uint32_t id = 0; id < unique; ++id) {
    if (scratch.name_counts[id] > 0) {
      scratch.name_trie.insert(scratch.interner.text(id),
                               scratch.name_counts[id]);
    }
  }
  for (std::uint32_t id = 0; id < unique; ++id) {
    if (scratch.exec_counts[id] > 0) {
      scratch.exec_trie.insert(scratch.interner.text(id),
                               scratch.exec_counts[id]);
    }
  }
  trie_timer.stop();

  obs::ScopedTimer tag_timer(tag_extract_seconds());
  scratch.name_trie.extract_tags(config_.min_tag_length, config_.min_frequency,
                                 config_.top_k, scratch.arena, scratch.walk,
                                 scratch.name_tags);
  scratch.exec_trie.extract_tags(config_.min_tag_length, config_.min_frequency,
                                 config_.top_k, scratch.arena, scratch.walk,
                                 scratch.exec_tags);

  // Merge the two ranked lists: a tag found in both tries keeps its higher
  // frequency (the exec trie indexes a subset of the name trie's tokens, so
  // summing would double-count). Both lists are capped at top_k, so a
  // linear probe beats a hash map — and allocates nothing.
  scratch.merged.clear();
  scratch.merged.insert(scratch.merged.end(), scratch.name_tags.begin(),
                        scratch.name_tags.end());
  for (const TagView& tag : scratch.exec_tags) {
    bool found = false;
    for (TagView& existing : scratch.merged) {
      if (existing.text == tag.text) {
        existing.frequency = std::max(existing.frequency, tag.frequency);
        found = true;
        break;
      }
    }
    if (!found) scratch.merged.push_back(tag);
  }
  std::sort(scratch.merged.begin(), scratch.merged.end(),
            [](const TagView& a, const TagView& b) {
              if (a.frequency != b.frequency) return a.frequency > b.frequency;
              return a.text < b.text;
            });
  tag_timer.stop();
  tags_count_histogram().observe(static_cast<double>(scratch.merged.size()));

  arena_nodes_gauge().set(static_cast<double>(
      scratch.name_trie.node_count() + scratch.exec_trie.node_count()));
  const std::size_t footprint_after = scratch.capacity_bytes();
  arena_bytes_gauge().set(static_cast<double>(footprint_after));
  if (footprint_after == footprint_before) scratch_reuse_counter().inc();

  return scratch.merged;
}

TagSet Columbus::extract_from_tree(const fs::InMemoryFilesystem& filesystem,
                                   std::string_view root) const {
  std::vector<std::string> paths;
  std::vector<bool> executable;
  filesystem.walk(
      [&](const std::string& path, bool is_dir, std::uint16_t mode,
          std::uint64_t) {
        paths.push_back(path);
        executable.push_back(!is_dir && (mode & 0111) != 0);
      },
      root);
  return extract_from_paths(paths, executable);
}

// ---------------------------------------------------------------------------
// Legacy reference pipeline: the exact pre-arena implementation, kept as the
// baseline side of the equivalence suites and benches. Deliberately
// allocation-heavy — do not call it from serving code.
// ---------------------------------------------------------------------------

TagSet Columbus::extract_reference(const fs::Changeset& changeset) const {
  std::vector<std::string> paths;
  std::vector<bool> executable;
  paths.reserve(changeset.size());
  executable.reserve(changeset.size());
  for (const auto& rec : changeset.records()) {
    paths.push_back(rec.path);
    executable.push_back(rec.executable());
  }
  TagSet ts = extract_from_paths_reference(paths, executable);
  ts.labels = changeset.labels();
  return ts;
}

TagSet Columbus::extract_from_paths_reference(
    const std::vector<std::string>& paths,
    const std::vector<bool>& executable) const {
  FrequencyTrie ft_name;  // every segment of every path
  FrequencyTrie ft_exec;  // basenames of executable files only

  for (std::size_t i = 0; i < paths.size(); ++i) {
    // praxi-lint: allow(columbus-hot-alloc: legacy reference baseline)
    for (const auto& token : tokenizer_.tokenize(paths[i])) {
      ft_name.insert(token);
    }
    if (i < executable.size() && executable[i]) {
      // praxi-lint: allow(columbus-hot-alloc: legacy reference baseline)
      for (const auto& token : tokenizer_.tokenize(basename(paths[i]))) {
        ft_exec.insert(token);
      }
    }
  }

  const auto name_tags = ft_name.extract_tags(
      config_.min_tag_length, config_.min_frequency, config_.top_k);
  const auto exec_tags = ft_exec.extract_tags(
      config_.min_tag_length, config_.min_frequency, config_.top_k);

  std::unordered_map<std::string, std::uint32_t> merged;
  for (const auto& tag : name_tags) {
    auto [it, inserted] = merged.emplace(tag.text, tag.frequency);
    if (!inserted) it->second = std::max(it->second, tag.frequency);
  }
  for (const auto& tag : exec_tags) {
    auto [it, inserted] = merged.emplace(tag.text, tag.frequency);
    if (!inserted) it->second = std::max(it->second, tag.frequency);
  }

  TagSet ts;
  ts.tags.reserve(merged.size());
  for (auto& [text, frequency] : merged) ts.tags.push_back(Tag{text, frequency});
  std::sort(ts.tags.begin(), ts.tags.end(), [](const Tag& a, const Tag& b) {
    if (a.frequency != b.frequency) return a.frequency > b.frequency;
    return a.text < b.text;
  });
  return ts;
}

}  // namespace praxi::columbus
