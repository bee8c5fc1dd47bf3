// Tests for the Columbus frequency tries: the legacy pointer trie
// (columbus/frequency_trie.hpp) including the paper's Fig. 1 worked
// example, the flat arena trie (columbus/arena_trie.hpp), and the
// old-vs-new equivalence suite proving their outputs bit-identical.
#include "columbus/frequency_trie.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "columbus/arena_trie.hpp"
#include "common/rng.hpp"

namespace praxi::columbus {
namespace {

/// Runs ArenaTrie::extract_tags with throwaway scratch and converts the
/// TagViews to owned Tags so suites can compare against FrequencyTrie.
std::vector<Tag> arena_tags(const ArenaTrie& trie, std::size_t min_length,
                            std::uint32_t min_frequency, std::size_t top_k) {
  CharArena arena;
  TagWalkScratch walk;
  std::vector<TagView> views;
  trie.extract_tags(min_length, min_frequency, top_k, arena, walk, views);
  std::vector<Tag> tags;
  tags.reserve(views.size());
  for (const TagView& v : views) {
    tags.push_back(Tag{std::string(v.text), v.frequency});
  }
  return tags;
}

TEST(FrequencyTrie, Fig1Example) {
  FrequencyTrie trie;
  for (const char* token :
       {"man", "mysqld", "mysqldb", "mysqldump", "mysqladmin"}) {
    trie.insert(token);
  }
  EXPECT_EQ(trie.token_count(), 5u);
  EXPECT_EQ(trie.prefix_frequency("m"), 5u);
  EXPECT_EQ(trie.prefix_frequency("mysql"), 4u);
  EXPECT_EQ(trie.prefix_frequency("mysqld"), 3u);
  EXPECT_EQ(trie.prefix_frequency("mysqla"), 1u);
  EXPECT_EQ(trie.prefix_frequency("zzz"), 0u);

  const auto tags = trie.extract_tags(3, 2, 0);
  ASSERT_EQ(tags.size(), 2u);
  EXPECT_EQ(tags[0], (Tag{"mysql", 4}));
  EXPECT_EQ(tags[1], (Tag{"mysqld", 3}));
}

TEST(FrequencyTrie, RepeatedTokenBecomesTag) {
  FrequencyTrie trie;
  trie.insert("nginx");
  trie.insert("nginx");
  trie.insert("nginx");
  const auto tags = trie.extract_tags(3, 2, 0);
  ASSERT_EQ(tags.size(), 1u);
  EXPECT_EQ(tags[0], (Tag{"nginx", 3}));
}

TEST(FrequencyTrie, MinFrequencyFiltersSingletons) {
  FrequencyTrie trie;
  trie.insert("unique-token");
  trie.insert("repeated");
  trie.insert("repeated");
  const auto tags = trie.extract_tags(3, 2, 0);
  ASSERT_EQ(tags.size(), 1u);
  EXPECT_EQ(tags[0].text, "repeated");
  // min_frequency 1 keeps the singleton too.
  EXPECT_EQ(trie.extract_tags(3, 1, 0).size(), 2u);
}

TEST(FrequencyTrie, MinLengthFiltersShortPrefixes) {
  FrequencyTrie trie;
  trie.insert("abc");
  trie.insert("abd");  // drop happens at "ab" (length 2)
  EXPECT_TRUE(trie.extract_tags(3, 2, 0).empty());
  const auto tags = trie.extract_tags(2, 2, 0);
  ASSERT_EQ(tags.size(), 1u);
  EXPECT_EQ(tags[0], (Tag{"ab", 2}));
}

TEST(FrequencyTrie, TopKTruncates) {
  FrequencyTrie trie;
  // Three independent repeated tokens with distinct frequencies.
  for (int i = 0; i < 5; ++i) trie.insert("alpha");
  for (int i = 0; i < 4; ++i) trie.insert("bravo");
  for (int i = 0; i < 3; ++i) trie.insert("charlie");
  const auto top2 = trie.extract_tags(3, 2, 2);
  ASSERT_EQ(top2.size(), 2u);
  EXPECT_EQ(top2[0].text, "alpha");
  EXPECT_EQ(top2[1].text, "bravo");
}

TEST(FrequencyTrie, TagsSortedByFrequencyThenText) {
  FrequencyTrie trie;
  for (int i = 0; i < 3; ++i) trie.insert("zeta");
  for (int i = 0; i < 3; ++i) trie.insert("echo");
  const auto tags = trie.extract_tags(3, 2, 0);
  ASSERT_EQ(tags.size(), 2u);
  EXPECT_EQ(tags[0].text, "echo");  // tie broken lexicographically
  EXPECT_EQ(tags[1].text, "zeta");
}

TEST(FrequencyTrie, MidChainPrefixesAreNotTags) {
  FrequencyTrie trie;
  trie.insert("mysqld");
  trie.insert("mysqld");
  const auto tags = trie.extract_tags(3, 2, 0);
  // Only the full token, never "mys"/"mysq"/... chain interiors.
  ASSERT_EQ(tags.size(), 1u);
  EXPECT_EQ(tags[0].text, "mysqld");
}

TEST(FrequencyTrie, TokenEndingInsideAnotherEmitsBoth) {
  FrequencyTrie trie;
  trie.insert("redis");
  trie.insert("redis");
  trie.insert("redis-server");
  trie.insert("redis-server");
  const auto tags = trie.extract_tags(3, 2, 0);
  ASSERT_EQ(tags.size(), 2u);
  EXPECT_EQ(tags[0], (Tag{"redis", 4}));
  EXPECT_EQ(tags[1], (Tag{"redis-server", 2}));
}

TEST(FrequencyTrie, EmptyTokenIgnored) {
  FrequencyTrie trie;
  trie.insert("");
  EXPECT_EQ(trie.token_count(), 0u);
  EXPECT_TRUE(trie.extract_tags(1, 1, 0).empty());
}

TEST(FrequencyTrie, EmptyTrieExtractsNothing) {
  FrequencyTrie trie;
  EXPECT_TRUE(trie.extract_tags(3, 2, 0).empty());
  EXPECT_GT(trie.memory_bytes(), 0u);  // the root node itself
}

TEST(FrequencyTrie, MemoryGrowsWithContent) {
  FrequencyTrie small, big;
  small.insert("abc");
  for (int i = 0; i < 100; ++i) big.insert("token" + std::to_string(i));
  EXPECT_GT(big.memory_bytes(), small.memory_bytes());
}

// Property sweep: for any set of tokens sharing a common prefix plus one
// outlier, the shared prefix must be the top tag.
class SharedPrefixSweep : public ::testing::TestWithParam<int> {};

TEST_P(SharedPrefixSweep, SharedPrefixWins) {
  const int n = GetParam();
  FrequencyTrie trie;
  for (int i = 0; i < n; ++i) {
    trie.insert("postgres-tool" + std::to_string(i));
  }
  trie.insert("unrelated");
  const auto tags = trie.extract_tags(3, 2, 0);
  ASSERT_FALSE(tags.empty());
  EXPECT_EQ(tags[0].text, "postgres-tool");
  EXPECT_EQ(tags[0].frequency, std::uint32_t(n));
}

INSTANTIATE_TEST_SUITE_P(Sizes, SharedPrefixSweep,
                         ::testing::Values(2, 3, 5, 10, 50));

// ---------------------------------------------------------------------------
// ArenaTrie: the flat index-linked replacement used on the hot path.
// ---------------------------------------------------------------------------

TEST(ArenaTrie, Fig1Example) {
  ArenaTrie trie;
  for (const char* token :
       {"man", "mysqld", "mysqldb", "mysqldump", "mysqladmin"}) {
    trie.insert(token);
  }
  EXPECT_EQ(trie.token_count(), 5u);
  EXPECT_EQ(trie.prefix_frequency("m"), 5u);
  EXPECT_EQ(trie.prefix_frequency("mysql"), 4u);
  EXPECT_EQ(trie.prefix_frequency("mysqld"), 3u);
  EXPECT_EQ(trie.prefix_frequency("mysqla"), 1u);
  EXPECT_EQ(trie.prefix_frequency("zzz"), 0u);
  EXPECT_EQ(trie.prefix_frequency(""), 0u);  // root is never a prefix hit

  const auto tags = arena_tags(trie, 3, 2, 0);
  ASSERT_EQ(tags.size(), 2u);
  EXPECT_EQ(tags[0], (Tag{"mysql", 4}));
  EXPECT_EQ(tags[1], (Tag{"mysqld", 3}));
}

TEST(ArenaTrie, WeightedInsertEqualsRepeatedInserts) {
  ArenaTrie repeated, weighted;
  for (int i = 0; i < 7; ++i) repeated.insert("redis");
  for (int i = 0; i < 3; ++i) repeated.insert("redis-server");
  weighted.insert("redis", 7);
  weighted.insert("redis-server", 3);
  EXPECT_EQ(repeated.token_count(), weighted.token_count());
  EXPECT_EQ(repeated.node_count(), weighted.node_count());
  EXPECT_EQ(arena_tags(repeated, 3, 2, 0), arena_tags(weighted, 3, 2, 0));
}

TEST(ArenaTrie, ClearRetainsCapacityAndResetsContent) {
  ArenaTrie trie;
  for (int i = 0; i < 50; ++i) trie.insert("token" + std::to_string(i));
  const std::size_t grown = trie.memory_bytes();
  ASSERT_GT(trie.node_count(), 1u);
  trie.clear();
  EXPECT_EQ(trie.node_count(), 1u);  // just the root
  EXPECT_EQ(trie.token_count(), 0u);
  EXPECT_EQ(trie.prefix_frequency("token1"), 0u);
  EXPECT_EQ(trie.memory_bytes(), grown);  // node pool retained
  // Rebuild into the retained pool works and is clean of stale state.
  trie.insert("nginx", 2);
  const auto tags = arena_tags(trie, 3, 2, 0);
  ASSERT_EQ(tags.size(), 1u);
  EXPECT_EQ(tags[0], (Tag{"nginx", 2}));
}

TEST(ArenaTrie, EmptyAndZeroCountInsertsIgnored) {
  ArenaTrie trie;
  trie.insert("");
  trie.insert("nginx", 0);
  EXPECT_EQ(trie.token_count(), 0u);
  EXPECT_EQ(trie.node_count(), 1u);
  EXPECT_TRUE(arena_tags(trie, 1, 1, 0).empty());
}

TEST(ArenaTrie, MemoryBytesIsExactNodePool) {
  ArenaTrie trie;
  trie.insert("abc");
  // The contract: exact owned allocation, no estimation involved.
  EXPECT_EQ(trie.memory_bytes() % sizeof(ArenaTrie::Node), 0u);
  EXPECT_GE(trie.memory_bytes(), trie.node_count() * sizeof(ArenaTrie::Node));
}

TEST(ArenaTrie, FlatNodesBeatPointerTrieFootprint) {
  // Same content in both tries: the arena's 20-byte nodes must undercut the
  // legacy rb-tree edges (whose honest accounting this PR fixed).
  FrequencyTrie legacy;
  ArenaTrie arena;
  Rng rng(3);
  for (int i = 0; i < 200; ++i) {
    const std::string token = "pkg-" + std::to_string(rng.below(64)) + "-lib";
    legacy.insert(token);
    arena.insert(token);
  }
  EXPECT_LT(arena.memory_bytes(), legacy.memory_bytes());
}

// ---------------------------------------------------------------------------
// Old-vs-new equivalence: for any token multiset and any extraction
// parameters the two tries must produce byte-identical ranked tag lists.
// ---------------------------------------------------------------------------

std::vector<Tag> legacy_tags(const std::vector<std::string>& tokens,
                             std::size_t min_length,
                             std::uint32_t min_frequency, std::size_t top_k) {
  FrequencyTrie trie;
  for (const auto& token : tokens) trie.insert(token);
  return trie.extract_tags(min_length, min_frequency, top_k);
}

std::vector<Tag> flat_tags(const std::vector<std::string>& tokens,
                           std::size_t min_length, std::uint32_t min_frequency,
                           std::size_t top_k) {
  ArenaTrie trie;
  for (const auto& token : tokens) trie.insert(token);
  return arena_tags(trie, min_length, min_frequency, top_k);
}

void expect_equivalent(const std::vector<std::string>& tokens) {
  for (const std::size_t min_length : {std::size_t{1}, std::size_t{3}}) {
    for (const std::uint32_t min_frequency : {1u, 2u}) {
      for (const std::size_t top_k : {std::size_t{0}, std::size_t{5}}) {
        EXPECT_EQ(legacy_tags(tokens, min_length, min_frequency, top_k),
                  flat_tags(tokens, min_length, min_frequency, top_k))
            << "min_length=" << min_length
            << " min_frequency=" << min_frequency << " top_k=" << top_k;
      }
    }
  }
}

TEST(TrieEquivalence, AdversarialTokenSets) {
  expect_equivalent({});
  expect_equivalent({""});
  expect_equivalent({"a", "b", "a"});  // 1-char tokens
  expect_equivalent({"same", "same", "same", "same"});
  expect_equivalent({"prefix", "prefixes", "prefixed", "prefix-free"});
  // Shared-prefix flood: one deep chain with a fan-out at every depth.
  std::vector<std::string> flood;
  for (int i = 0; i < 64; ++i) {
    flood.push_back("shared-prefix-flood-" + std::to_string(i));
    flood.push_back(flood.back().substr(0, static_cast<std::size_t>(7 + i % 13)));
  }
  expect_equivalent(flood);
}

TEST(TrieEquivalence, RandomCorpusSweep) {
  Rng rng(17);
  for (int round = 0; round < 20; ++round) {
    std::vector<std::string> tokens;
    const std::size_t n = 1 + rng.below(120);
    for (std::size_t i = 0; i < n; ++i) {
      std::string token;
      const std::size_t len = 1 + rng.below(12);
      for (std::size_t j = 0; j < len; ++j) {
        token.push_back(static_cast<char>('a' + rng.below(5)));
      }
      tokens.push_back(std::move(token));
    }
    expect_equivalent(tokens);
  }
}

// The arena walk skips every child rarer than min_frequency (a node is
// never rarer than its descendants, so such a subtree holds no tag). Pin it
// against the legacy trie, which walks everything: at 0 and 1 nothing is
// pruned, at 2 and 3 most single-occurrence tails are.
TEST(TrieEquivalence, PrunedWalkMatchesAtEveryMinFrequency) {
  Rng rng(29);
  for (int round = 0; round < 40; ++round) {
    std::vector<std::string> tokens;
    const std::size_t distinct = 1 + rng.below(40);
    for (std::size_t i = 0; i < distinct; ++i) {
      std::string token;
      const std::size_t len = 1 + rng.below(10);
      for (std::size_t j = 0; j < len; ++j) {
        token.push_back(static_cast<char>('a' + rng.below(4)));
      }
      // A multiset: each distinct token 1-4 times.
      const std::size_t copies = 1 + rng.below(4);
      for (std::size_t c = 0; c < copies; ++c) tokens.push_back(token);
    }
    for (const std::uint32_t min_frequency : {0u, 1u, 2u, 3u}) {
      for (const std::size_t min_length : {std::size_t{1}, std::size_t{3}}) {
        EXPECT_EQ(legacy_tags(tokens, min_length, min_frequency, 0),
                  flat_tags(tokens, min_length, min_frequency, 0))
            << "round=" << round << " min_frequency=" << min_frequency
            << " min_length=" << min_length;
      }
    }
  }
}

}  // namespace
}  // namespace praxi::columbus
