// Tests for the Columbus path tokenizer (columbus/tokenizer.hpp).
#include "columbus/tokenizer.hpp"

#include <gtest/gtest.h>

namespace praxi::columbus {
namespace {

TEST(Tokenizer, SplitsPathIntoSegments) {
  Tokenizer tokenizer(std::vector<std::string>{});  // no filtering
  EXPECT_EQ(tokenizer.tokenize("/etc/mysql/conf.d"),
            (std::vector<std::string>{"etc", "mysql", "conf.d"}));
}

TEST(Tokenizer, RemovesSystemTokens) {
  Tokenizer tokenizer;
  // The paper's example: /etc/mysql/conf.d keeps only "mysql" (etc is a
  // system token; conf.d is packaging boilerplate).
  EXPECT_EQ(tokenizer.tokenize("/etc/mysql/conf.d"),
            (std::vector<std::string>{"mysql"}));
  EXPECT_EQ(tokenizer.tokenize("/usr/bin/mysqldump"),
            (std::vector<std::string>{"mysqldump"}));
}

TEST(Tokenizer, DropsSingleCharactersAndNumbers) {
  Tokenizer tokenizer(std::vector<std::string>{});
  // "a" and "5" are single characters; "12345" is pure digits.
  EXPECT_EQ(tokenizer.tokenize("/a/5/12345/x9/file"),
            (std::vector<std::string>{"x9", "file"}));
}

TEST(Tokenizer, DropsPunctuationOnlySegments) {
  Tokenizer tokenizer(std::vector<std::string>{});
  EXPECT_EQ(tokenizer.tokenize("/pkg/1.2.3/__/name"),
            (std::vector<std::string>{"pkg", "name"}));
}

TEST(Tokenizer, LowercasesTokens) {
  Tokenizer tokenizer(std::vector<std::string>{});
  EXPECT_EQ(tokenizer.tokenize("/Apps/MySQL"),
            (std::vector<std::string>{"apps", "mysql"}));
}

TEST(Tokenizer, IsSystemTokenMatchesFilterList) {
  Tokenizer tokenizer;
  EXPECT_TRUE(tokenizer.is_system_token("etc"));
  EXPECT_TRUE(tokenizer.is_system_token("usr"));
  EXPECT_TRUE(tokenizer.is_system_token("man1"));
  EXPECT_FALSE(tokenizer.is_system_token("mysql"));
}

TEST(Tokenizer, CustomFilterList) {
  Tokenizer tokenizer({"banana"});
  EXPECT_EQ(tokenizer.tokenize("/banana/apple"),
            (std::vector<std::string>{"apple"}));
}

TEST(Tokenizer, EmptyAndRootPaths) {
  Tokenizer tokenizer;
  EXPECT_TRUE(tokenizer.tokenize("").empty());
  EXPECT_TRUE(tokenizer.tokenize("/").empty());
  EXPECT_TRUE(tokenizer.tokenize("/usr/bin").empty());
}

/// Membership by linear scan of the default filter list: the oracle for
/// the bucketed lookup.
bool listed(std::string_view token) {
  static const std::vector<std::string> list = default_system_tokens();
  for (const std::string& entry : list) {
    if (entry == token) return true;
  }
  return false;
}

TEST(Tokenizer, BucketedLookupMatchesTheListUnderOneByteMutations) {
  const Tokenizer tokenizer;
  const std::vector<std::string> tokens = default_system_tokens();
  ASSERT_FALSE(tokens.empty());
  std::size_t probes = 0;
  for (const std::string& token : tokens) {
    EXPECT_TRUE(tokenizer.is_system_token(token)) << token;
    for (std::size_t i = 0; i <= token.size(); ++i) {
      if (i < token.size()) {
        std::string dropped = token;  // deletion
        dropped.erase(i, 1);
        EXPECT_EQ(tokenizer.is_system_token(dropped), listed(dropped)) << dropped;
      }
      for (int byte = 0; byte < 256; ++byte) {
        std::string inserted = token;  // insertion
        inserted.insert(i, 1, static_cast<char>(byte));
        EXPECT_EQ(tokenizer.is_system_token(inserted), listed(inserted));
        if (i == token.size()) continue;
        std::string replaced = token;  // substitution
        replaced[i] = static_cast<char>(byte);
        EXPECT_EQ(tokenizer.is_system_token(replaced), listed(replaced));
        probes += 2;
      }
    }
  }
  EXPECT_GT(probes, 10000u);
}

TEST(Tokenizer, CustomListWithEmptyLongAndSharedBucketTokens) {
  // The bucket keeps four bits of the length, so "" and the 16- and
  // 32-byte tokens share the length-0 row; the man<N> family shares one
  // bucket.
  const Tokenizer tokenizer({"", "x86_64-linux-gnu", "abcdefghijklmnopqrstuvwxyz012345",
                             "man1", "man2", "man9", "Upper"});
  EXPECT_TRUE(tokenizer.is_system_token(""));
  EXPECT_TRUE(tokenizer.is_system_token("x86_64-linux-gnu"));
  EXPECT_TRUE(tokenizer.is_system_token("abcdefghijklmnopqrstuvwxyz012345"));
  EXPECT_TRUE(tokenizer.is_system_token("man9"));
  EXPECT_TRUE(tokenizer.is_system_token("Upper"));
  EXPECT_FALSE(tokenizer.is_system_token("upper"));
  EXPECT_FALSE(tokenizer.is_system_token("man3"));
  EXPECT_FALSE(tokenizer.is_system_token("x86_64-linux-gnx"));
  // A copied tokenizer answers the same (the table holds indices).
  const Tokenizer copy = tokenizer;
  EXPECT_TRUE(copy.is_system_token("x86_64-linux-gnu"));
  EXPECT_FALSE(copy.is_system_token("man3"));
}

}  // namespace
}  // namespace praxi::columbus
