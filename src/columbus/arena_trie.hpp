// Flat arena-backed frequency trie — the allocation-free replacement for
// the pointer-chasing FrequencyTrie on the Columbus hot path
// (docs/ALGORITHMS.md, paper §II-B).
//
// Nodes live in one contiguous std::vector and link by index
// (first-child / next-sibling), so construction after warmup touches no
// allocator and traversal chases 20-byte slots in a flat array instead of
// heap-scattered std::map nodes. Semantics are bit-identical to
// FrequencyTrie: same frequency-drop tag rule, same (frequency desc, text
// asc) ranking, proven by the old-vs-new equivalence suites in
// tests/frequency_trie_test.cpp and tests/batch_determinism_test.cpp.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

#include "columbus/char_arena.hpp"

namespace praxi::columbus {

/// A ranked tag whose text is a view into extraction-scratch storage
/// (valid until the owning scratch is cleared). The zero-allocation
/// counterpart of Tag (frequency_trie.hpp).
struct TagView {
  std::string_view text;
  std::uint32_t frequency = 0;

  friend bool operator==(const TagView&, const TagView&) = default;
};

/// Reusable traversal buffers for ArenaTrie::extract_tags (DFS stack +
/// current prefix). Owned by ExtractionScratch; capacity persists across
/// extractions.
struct TagWalkScratch {
  std::vector<std::uint32_t> stack;   ///< pending node indices
  std::vector<std::uint32_t> depths;  ///< parallel depth stack
  std::vector<char> prefix;           ///< chars root -> current node

  std::size_t capacity_bytes() const {
    return stack.capacity() * sizeof(std::uint32_t) +
           depths.capacity() * sizeof(std::uint32_t) +
           prefix.capacity();
  }
};

class ArenaTrie {
 public:
  static constexpr std::uint32_t kNil = 0xffffffffU;

  struct Node {
    std::uint32_t frequency = 0;
    std::uint32_t terminal = 0;  ///< tokens ending exactly here
    std::uint32_t first_child = kNil;
    std::uint32_t next_sibling = kNil;
    char label = 0;  ///< edge char from parent (root: unused)
  };

  ArenaTrie() { nodes_.push_back(Node{}); }

  /// Indexes `count` occurrences of `token` in one pass (frequencies are
  /// additive, so this is exactly `count` repeated insert()s).
  void insert(std::string_view token, std::uint32_t count = 1);

  /// Number of token occurrences inserted since the last clear().
  std::uint64_t token_count() const { return token_count_; }

  /// Nodes currently in the arena, root included.
  std::size_t node_count() const { return nodes_.size(); }

  /// Frequency of the exact prefix `prefix` (0 when absent or empty).
  std::uint32_t prefix_frequency(std::string_view prefix) const;

  /// Extracts tags under the frequency-drop rule (same contract as
  /// FrequencyTrie::extract_tags), writing them to `out` ranked by
  /// descending frequency (ties: lexicographic) and truncated to top_k
  /// (0 = unlimited). Tag texts are copied into `text_arena`; `walk` holds
  /// the reused traversal buffers. `out` is cleared first. Subtrees whose
  /// root is rarer than min_frequency cannot hold a tag and are not walked.
  void extract_tags(std::size_t min_length, std::uint32_t min_frequency,
                    std::size_t top_k, CharArena& text_arena,
                    TagWalkScratch& walk, std::vector<TagView>& out) const;

  /// Empties the trie; node storage is retained so rebuilding up to the
  /// high-water node count performs no allocation.
  void clear() {
    nodes_.clear();
    nodes_.push_back(Node{});
    token_count_ = 0;
  }

  /// Exact arena footprint: capacity() * sizeof(Node). Unlike the legacy
  /// trie's estimate this is the true owned allocation size.
  std::size_t memory_bytes() const {
    return nodes_.capacity() * sizeof(Node);
  }

 private:
  std::uint32_t child(std::uint32_t node, char c) const;

  std::vector<Node> nodes_;  ///< nodes_[0] is the root
  std::uint64_t token_count_ = 0;
};

}  // namespace praxi::columbus
