#include "columbus/arena_trie.hpp"

#include <algorithm>

namespace praxi::columbus {

std::uint32_t ArenaTrie::child(std::uint32_t node, char c) const {
  for (std::uint32_t i = nodes_[node].first_child; i != kNil;
       i = nodes_[i].next_sibling) {
    if (nodes_[i].label == c) return i;
  }
  return kNil;
}

void ArenaTrie::insert(std::string_view token, std::uint32_t count) {
  if (token.empty() || count == 0) return;
  token_count_ += count;
  std::uint32_t node = 0;
  nodes_[0].frequency += count;
  for (char c : token) {
    std::uint32_t next = child(node, c);
    if (next == kNil) {
      next = static_cast<std::uint32_t>(nodes_.size());
      Node fresh;
      fresh.label = c;
      // Head-link: child order carries no meaning (the final tag ranking
      // is a total order), so O(1) insertion wins.
      fresh.next_sibling = nodes_[node].first_child;
      nodes_.push_back(fresh);
      nodes_[node].first_child = next;
    }
    node = next;
    nodes_[node].frequency += count;
  }
  nodes_[node].terminal += count;
}

std::uint32_t ArenaTrie::prefix_frequency(std::string_view prefix) const {
  std::uint32_t node = 0;
  for (char c : prefix) {
    node = child(node, c);
    if (node == kNil) return 0;
  }
  return node == 0 ? 0 : nodes_[node].frequency;
}

void ArenaTrie::extract_tags(std::size_t min_length,
                             std::uint32_t min_frequency, std::size_t top_k,
                             CharArena& text_arena, TagWalkScratch& walk,
                             std::vector<TagView>& out) const {
  out.clear();
  walk.stack.clear();
  walk.depths.clear();
  walk.prefix.clear();
  walk.stack.push_back(0);
  walk.depths.push_back(0);

  // Iterative DFS. The prefix buffer holds the chars root -> current node;
  // truncating to depth-1 before appending this node's label is safe
  // because a sibling's subtree only ever wrote positions >= our depth-1.
  while (!walk.stack.empty()) {
    const std::uint32_t index = walk.stack.back();
    const std::uint32_t depth = walk.depths.back();
    walk.stack.pop_back();
    walk.depths.pop_back();
    const Node& node = nodes_[index];

    if (depth > 0) {
      walk.prefix.resize(depth - 1);
      walk.prefix.push_back(node.label);
    }

    if (index != 0) {
      // Same drop rule as the legacy trie: a token terminating here, or
      // any strictly rarer outgoing edge, makes this prefix a tag.
      bool drop = node.terminal > 0;
      if (!drop) {
        for (std::uint32_t c = node.first_child; c != kNil;
             c = nodes_[c].next_sibling) {
          if (nodes_[c].frequency < node.frequency) {
            drop = true;
            break;
          }
        }
      }
      if (drop && depth >= min_length && node.frequency >= min_frequency) {
        out.push_back(TagView{
            text_arena.store({walk.prefix.data(), depth}), node.frequency});
      }
    }

    // Prune: a node's frequency is never below a descendant's, so a child
    // rarer than min_frequency roots a subtree that holds no tag. (The
    // drop-rule scan above still read it.)
    for (std::uint32_t c = node.first_child; c != kNil;
         c = nodes_[c].next_sibling) {
      if (nodes_[c].frequency < min_frequency) continue;
      walk.stack.push_back(c);
      walk.depths.push_back(depth + 1);
    }
  }

  std::sort(out.begin(), out.end(), [](const TagView& a, const TagView& b) {
    if (a.frequency != b.frequency) return a.frequency > b.frequency;
    return a.text < b.text;
  });
  if (top_k > 0 && out.size() > top_k) out.resize(top_k);
}

}  // namespace praxi::columbus
