#include "columbus/scratch.hpp"

namespace praxi::columbus {

std::size_t ExtractionScratch::capacity_bytes() const {
  return arena.capacity_bytes() + interner.capacity_bytes() +
         dirs.capacity_bytes() +
         dir_ids.capacity() * sizeof(std::uint32_t) +
         dir_ends.capacity() * sizeof(std::uint32_t) +
         paths.capacity() * sizeof(PathRef) +
         tokens.capacity() * sizeof(std::string_view) +
         name_counts.capacity() * sizeof(std::uint32_t) +
         exec_counts.capacity() * sizeof(std::uint32_t) +
         name_trie.memory_bytes() + exec_trie.memory_bytes() +
         walk.capacity_bytes() +
         name_tags.capacity() * sizeof(TagView) +
         exec_tags.capacity() * sizeof(TagView) +
         merged.capacity() * sizeof(TagView);
}

ExtractionScratch& tls_extraction_scratch() {
  thread_local ExtractionScratch scratch;
  return scratch;
}

}  // namespace praxi::columbus
