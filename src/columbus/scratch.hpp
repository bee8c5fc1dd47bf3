// Per-thread reusable extraction state for the Columbus hot path
// (docs/ALGORITHMS.md). One ExtractionScratch bundles every buffer one
// extraction needs — the case-fold/tag-text arena, the segment interner,
// per-segment frequency counts, the per-directory segment-id cache, both
// arena tries, and the ranked-tag buffers — so a warm scratch runs the
// whole tokenize → intern → trie → rank pipeline with zero allocations
// (asserted by tests/columbus_alloc_test.cpp).
//
// This is a scratch bundle, not an abstraction: members are public and the
// pipeline in columbus.cpp writes them directly. Results read out of a
// scratch (TagView spans) stay valid until the next begin().
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

#include "columbus/arena_trie.hpp"
#include "columbus/char_arena.hpp"
#include "columbus/interner.hpp"

namespace praxi::columbus {

/// One input path plus its executable flag, as views into caller storage.
struct PathRef {
  std::string_view path;
  bool executable = false;
};

class ExtractionScratch {
 public:
  /// Resets per-extraction state. Every buffer keeps its capacity, so a
  /// warm scratch allocates nothing during the extraction that follows.
  void begin() {
    arena.clear();
    interner.clear();
    dirs.clear();
    dir_ids.clear();
    dir_ends.clear();
    paths.clear();
    tokens.clear();
    name_counts.clear();
    exec_counts.clear();
    name_trie.clear();
    exec_trie.clear();
    name_tags.clear();
    exec_tags.clear();
    merged.clear();
  }

  /// Total bytes of storage owned across every member buffer. Stable
  /// across two extractions of the same input == the scratch is warm
  /// (the praxi_columbus_arena_scratch_reuse_total signal).
  std::size_t capacity_bytes() const;

  CharArena arena;            ///< case-folded segments + tag texts
  SegmentInterner interner;   ///< segment view -> dense id
  /// Directory part of a path (everything before its last '/') -> dense
  /// directory id. Directory d's segment ids are
  /// dir_ids[d == 0 ? 0 : dir_ends[d - 1], dir_ends[d]).
  SegmentInterner dirs;
  std::vector<std::uint32_t> dir_ids;   ///< segment ids, directory by directory
  std::vector<std::uint32_t> dir_ends;  ///< directory id -> end in dir_ids
  std::vector<PathRef> paths;                 ///< extraction input
  std::vector<std::string_view> tokens;       ///< per-path token views
  std::vector<std::uint32_t> name_counts;     ///< id -> FT_name occurrences
  std::vector<std::uint32_t> exec_counts;     ///< id -> FT_exec occurrences
  ArenaTrie name_trie;
  ArenaTrie exec_trie;
  TagWalkScratch walk;
  std::vector<TagView> name_tags;
  std::vector<TagView> exec_tags;
  std::vector<TagView> merged;  ///< final ranked tags of the last run
};

/// The per-thread scratch the batch surfaces reuse: pool workers are
/// long-lived, so after each worker's first extraction the whole batch
/// runs allocation-free. Also the single-item default.
ExtractionScratch& tls_extraction_scratch();

}  // namespace praxi::columbus
