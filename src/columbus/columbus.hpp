// Columbus: practice-based software discovery via filesystem naming
// conventions (Nadgowda et al., IC2E'17; paper §II-B).
//
// Columbus builds two frequency tries over the tokens of a set of filepaths:
// FT_name indexes every path segment, FT_exec indexes only the basenames of
// executable files. Tags (most-frequent longest-common-prefixes) are
// extracted from each trie, ranked by frequency, truncated to the top k, and
// merged. Praxi applies Columbus not to a whole filesystem scan but to the
// changed paths inside a changeset (§III-B), so the resulting tagset
// describes only what happened during the recording window.
//
// The extraction pipeline is the zero-copy arena path (docs/ALGORITHMS.md):
// view tokenization over the caller's path buffers, a segment interner that
// hashes each distinct segment once per extraction, and flat arena-backed
// tries, all running inside a reusable per-thread ExtractionScratch so
// steady-state batch extraction performs zero allocations. The legacy
// pointer-chasing implementation survives as extract_reference() /
// extract_from_paths_reference(), the baseline side of the equivalence
// suites and of bench/micro_components — outputs are bit-identical.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "columbus/scratch.hpp"
#include "columbus/tagset.hpp"
#include "columbus/tokenizer.hpp"
#include "common/thread_pool.hpp"
#include "fs/changeset.hpp"
#include "fs/filesystem.hpp"

namespace praxi::columbus {

struct ColumbusConfig {
  /// Tags kept per trie after ranking (the paper's heuristic k).
  std::size_t top_k = 25;
  /// Tags must occur more than once — this is the noise filter of §III-B.
  std::uint32_t min_frequency = 2;
  /// Shorter prefixes are too generic to be informative.
  std::size_t min_tag_length = 3;
};

class Columbus {
 public:
  explicit Columbus(ColumbusConfig config = {});

  /// Praxi's usage: tags from the changed paths of one changeset. The
  /// returned tagset inherits the changeset's ground-truth labels. Runs on
  /// the calling thread's reusable scratch.
  TagSet extract(const fs::Changeset& changeset) const;

  /// Same, on an explicit scratch (tests / callers managing reuse).
  TagSet extract(const fs::Changeset& changeset,
                 ExtractionScratch& scratch) const;

  /// Batch form of extract(): one tagset per changeset, in input order.
  /// Extraction is per-changeset independent (§III-B), so items run
  /// concurrently on `pool` (null or single-worker pool = sequential);
  /// results are identical to the sequential loop either way. Each worker
  /// reuses its thread's ExtractionScratch, so after one warmup extraction
  /// per worker the whole batch allocates only its output tagsets. This is
  /// the unified batch surface (docs/API.md) — the single-item extract()
  /// is equivalent to a one-element batch.
  std::vector<TagSet> extract(std::span<const fs::Changeset* const> changesets,
                              ThreadPool* pool = nullptr) const;

  /// The same three entry points over decoded wire views (the server's
  /// ingest path): paths go from the view straight into the scratch, no
  /// Changeset is built, and the tags are identical to extracting the
  /// materialized changeset.
  TagSet extract(const fs::ChangesetView& changeset,
                 ExtractionScratch& scratch) const;
  std::vector<TagSet> extract(
      std::span<const fs::ChangesetView* const> changesets,
      ThreadPool* pool = nullptr) const;

  /// Core primitive: tags from an explicit path list. `executable[i]` marks
  /// paths feeding FT_exec (pass an empty vector when unknown).
  TagSet extract_from_paths(const std::vector<std::string>& paths,
                            const std::vector<bool>& executable) const;
  TagSet extract_from_paths(const std::vector<std::string>& paths,
                            const std::vector<bool>& executable,
                            ExtractionScratch& scratch) const;

  /// The original Columbus use-case: scan an entire filesystem tree.
  TagSet extract_from_tree(const fs::InMemoryFilesystem& filesystem,
                           std::string_view root = "/") const;

  /// Runs the full pipeline over `scratch.paths` WITHOUT materializing a
  /// TagSet: the returned span (scratch.merged) holds the ranked tags as
  /// views into scratch storage, valid until the scratch's next begin().
  /// The caller fills scratch.paths after scratch.begin() — the extract()
  /// overloads above are the usual entry points; this low-level surface is
  /// what tests/columbus_alloc_test.cpp asserts zero allocations on.
  std::span<const TagView> extract_ranked(ExtractionScratch& scratch) const;

  /// Legacy reference implementation: allocating tokenizer + pointer-chasing
  /// FrequencyTrie, exactly the pre-arena pipeline. Retained as the
  /// equivalence-test baseline and the "before" side of
  /// bench/micro_components; outputs are bit-identical to extract().
  TagSet extract_reference(const fs::Changeset& changeset) const;
  TagSet extract_from_paths_reference(
      const std::vector<std::string>& paths,
      const std::vector<bool>& executable) const;

  const ColumbusConfig& config() const { return config_; }
  const Tokenizer& tokenizer() const { return tokenizer_; }

 private:
  Tokenizer tokenizer_;
  ColumbusConfig config_;
};

}  // namespace praxi::columbus
