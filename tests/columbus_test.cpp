// Tests for the Columbus extractor (columbus/columbus.hpp): tag discovery
// from path lists, changesets, and whole filesystem trees.
#include "columbus/columbus.hpp"

#include <gtest/gtest.h>

#include "fs/clock.hpp"

namespace praxi::columbus {
namespace {

std::vector<std::string> mysql_paths() {
  return {
      "/usr/share/man/man1/mysql.1.gz", "/usr/bin/mysqldump",
      "/usr/bin/mysqloptimize",         "/usr/bin/mysql",
      "/etc/mysql/conf.d",              "/etc/mysql/mysql.cnf",
      "/var/lib/dpkg/info/mysql-server-5.7.list",
  };
}

TEST(Columbus, FindsMysqlTagFromPaperSamplePaths) {
  Columbus columbus;
  const TagSet ts = columbus.extract_from_paths(mysql_paths(), {});
  ASSERT_FALSE(ts.empty());
  EXPECT_EQ(ts.tags[0].text, "mysql");
  EXPECT_GE(ts.tags[0].frequency, 5u);
}

TEST(Columbus, TagsSortedByFrequency) {
  Columbus columbus;
  const TagSet ts = columbus.extract_from_paths(mysql_paths(), {});
  for (std::size_t i = 1; i < ts.tags.size(); ++i) {
    EXPECT_GE(ts.tags[i - 1].frequency, ts.tags[i].frequency);
  }
}

TEST(Columbus, SingletonTokensFiltered) {
  Columbus columbus;
  const TagSet ts = columbus.extract_from_paths(
      {"/opt/alpha/one", "/opt/beta/two"}, {});
  // "alpha", "beta", "one", "two" all occur once -> filtered (min_freq 2);
  // nothing repeats except nothing.
  EXPECT_TRUE(ts.empty());
}

TEST(Columbus, ExecutableBasenamesFeedExecTrie) {
  Columbus columbus;
  const std::vector<std::string> paths = {
      "/usr/bin/redisd", "/usr/bin/rediscli", "/var/lib/redisd/data.db"};
  // With executables marked, the exec trie sees [redisd, rediscli] and the
  // name trie additionally sees redisd (dir) + data.db tokens.
  const TagSet with_exec =
      columbus.extract_from_paths(paths, {true, true, false});
  const TagSet without_exec = columbus.extract_from_paths(paths, {});
  EXPECT_GE(with_exec.frequency_of("redis"), 2u);
  // Merging never *reduces* information relative to the name trie alone.
  EXPECT_GE(with_exec.size(), without_exec.size());
}

TEST(Columbus, TopKLimitsTrieOutput) {
  ColumbusConfig config;
  config.top_k = 3;
  Columbus columbus(config);
  std::vector<std::string> paths;
  for (int t = 0; t < 10; ++t) {
    for (int i = 0; i < 2 + t; ++i) {
      paths.push_back("/data/family" + std::to_string(t) + "-member" +
                      std::to_string(i));
    }
  }
  const TagSet ts = columbus.extract_from_paths(paths, {});
  // Merged from two tries capped at 3 each.
  EXPECT_LE(ts.size(), 6u);
}

TEST(Columbus, ExtractFromChangesetCarriesLabels) {
  auto clock = fs::make_clock();
  fs::Changeset cs;
  cs.set_open_time(0);
  int t = 0;
  for (const auto& path : mysql_paths()) {
    cs.add(fs::ChangeRecord{path, 0644, fs::ChangeKind::kCreate, ++t});
  }
  cs.add_label("mysql-server");
  cs.close(100);

  Columbus columbus;
  const TagSet ts = columbus.extract(cs);
  EXPECT_EQ(ts.labels, (std::vector<std::string>{"mysql-server"}));
  EXPECT_EQ(ts.tags[0].text, "mysql");
}

TEST(Columbus, ExtractFromTreeScansWholeFilesystem) {
  auto clock = fs::make_clock();
  fs::InMemoryFilesystem filesystem(clock);
  for (const auto& path : mysql_paths()) {
    filesystem.create_file(path, path.rfind("/usr/bin/", 0) == 0 ? 0755 : 0644);
  }
  Columbus columbus;
  const TagSet ts = columbus.extract_from_tree(filesystem);
  ASSERT_FALSE(ts.empty());
  EXPECT_EQ(ts.tags[0].text, "mysql");
}

TEST(Columbus, ExtractFromSubtreeOnly) {
  auto clock = fs::make_clock();
  fs::InMemoryFilesystem filesystem(clock);
  filesystem.create_file("/opt/appa/appa-core");
  filesystem.create_file("/opt/appa/appa-util");
  filesystem.create_file("/srv/other/other-one");
  filesystem.create_file("/srv/other/other-two");
  Columbus columbus;
  const TagSet ts = columbus.extract_from_tree(filesystem, "/opt");
  EXPECT_GT(ts.frequency_of("appa"), 0u);
  EXPECT_EQ(ts.frequency_of("other"), 0u);
}

TEST(Columbus, EmptyInputsYieldEmptyTagset) {
  Columbus columbus;
  EXPECT_TRUE(columbus.extract_from_paths({}, {}).empty());
  fs::Changeset cs;
  cs.close(1);
  EXPECT_TRUE(columbus.extract(cs).empty());
}

TEST(Columbus, NoiseFilteringRejectsOneOffLogTouches) {
  // A single log rotation amid an install leaves singleton tokens that the
  // min-frequency rule drops (paper §III-B noise filtering).
  Columbus columbus;
  std::vector<std::string> paths = mysql_paths();
  paths.push_back("/var/log/unrelated-rotation.1.gz");
  const TagSet ts = columbus.extract_from_paths(paths, {});
  EXPECT_EQ(ts.frequency_of("unrelated-rotation.1.gz"), 0u);
  EXPECT_EQ(ts.tags[0].text, "mysql");
}

// ---------------------------------------------------------------------------
// Pass 1 tokenizes each distinct directory once and, per path, only the part
// after the last '/'. Every path shape below must still give the tags of the
// reference pipeline, which tokenizes every path whole.
// ---------------------------------------------------------------------------

/// The configurations the split is checked under: the defaults, and one
/// that keeps every tag (min_frequency 1, no length floor, no top-k cut).
std::vector<Columbus> split_configs() {
  ColumbusConfig keep_all;
  keep_all.top_k = 0;
  keep_all.min_frequency = 1;
  keep_all.min_tag_length = 1;
  return {Columbus(), Columbus(keep_all)};
}

void expect_split_matches_reference(const std::vector<std::string>& paths,
                                    const std::vector<bool>& executable,
                                    ExtractionScratch& scratch) {
  for (const Columbus& columbus : split_configs()) {
    const TagSet reference =
        columbus.extract_from_paths_reference(paths, executable);
    EXPECT_EQ(columbus.extract_from_paths(paths, executable, scratch),
              reference)
        << "min_frequency=" << columbus.config().min_frequency;
  }
}

void expect_split_matches_reference(const std::vector<std::string>& paths,
                                    const std::vector<bool>& executable) {
  ExtractionScratch scratch;
  expect_split_matches_reference(paths, executable, scratch);
}

/// Appends 26 non-executable tokens three times each, so under the default
/// top_k the name trie's tags crowd out every rarer token and only FT_exec
/// can bring an executable's basename into the merged tags.
void add_crowd(std::vector<std::string>& paths, std::vector<bool>& executable) {
  for (char c = 'a'; c <= 'z'; ++c) {
    for (int copy = 0; copy < 3; ++copy) {
      paths.push_back(std::string("/srv/crowd-") + c + c + "-pkg");
      executable.push_back(false);
    }
  }
}

TEST(ColumbusDirectorySplit, PathsWithoutSlash) {
  std::vector<std::string> paths = {"mysqld", "mysqld", "MySQLd",
                                    "relative-tool", "relative-tool", "x"};
  std::vector<bool> executable = {true, false, true, false, true, true};
  expect_split_matches_reference(paths, executable);
  add_crowd(paths, executable);
  expect_split_matches_reference(paths, executable);
}

TEST(ColumbusDirectorySplit, RootDoubleAndTrailingSlashes) {
  expect_split_matches_reference(
      {"/", "/", "//", "//nginx//conf//", "//nginx//conf//", "//a//b",
       "/opt/nginx/", "/opt/nginx/", "nginx/", "nginx//", "//nginx",
       "/nginx/nginx-core"},
      {true, true, false, true, false, true, true, false, true, true, true,
       true});
}

TEST(ColumbusDirectorySplit, UpperCaseDirectoriesFoldIntoTheArena) {
  expect_split_matches_reference(
      {"/ETC/MySQL/Conf.d/a.cnf", "/etc/mysql/conf.d/b.cnf",
       "/ETC/MySQL/Conf.d/c.cnf", "/Etc/MySQL/Data/mysqld",
       "/OPT/MySQL-Server/BIN/MySQLd", "/opt/mysql-server/bin/mysqld"},
      {false, false, false, true, true, true});
}

TEST(ColumbusDirectorySplit, DirectoriesOfOnlySystemTokens) {
  expect_split_matches_reference(
      {"/usr/lib/share/doc/redis-server", "/usr/lib/share/doc/redis-cli",
       "/usr/bin/redis", "/usr/bin/redis-benchmark", "/var/log/redis.log",
       "/usr/share/man/man1/redis.1.gz"},
      {false, false, true, true, false, false});
}

TEST(ColumbusDirectorySplit, OneBasenameUnderManyDirectories) {
  std::vector<std::string> paths;
  std::vector<bool> executable;
  for (int i = 0; i < 40; ++i) {
    paths.push_back("/opt/app-" + std::to_string(i % 7) + "/lib" +
                    std::to_string(i % 3) + "/common-basename");
    executable.push_back(i % 2 == 0);
  }
  expect_split_matches_reference(paths, executable);
}

TEST(ColumbusDirectorySplit, ExecutableWithUpperCaseBasename) {
  std::vector<std::string> paths = {"/usr/bin/MySQLd", "/usr/sbin/MYSQLD",
                                    "/opt/MySQLAdmin", "/opt/mysql/MySQLAdmin",
                                    "MySQLDump"};
  std::vector<bool> executable(paths.size(), true);
  expect_split_matches_reference(paths, executable);
  add_crowd(paths, executable);
  expect_split_matches_reference(paths, executable);
}

TEST(ColumbusDirectorySplit, ReusedScratchResetsTheDirectoryTable) {
  // Overlapping directories across changesets: a directory cached by one
  // extraction must not leak its ids or counts into the next.
  const std::vector<std::vector<std::string>> changesets = {
      {"/opt/nginx/conf/nginx.conf", "/opt/nginx/conf/mime.types",
       "/opt/nginx/sbin/nginx"},
      {"/opt/nginx/conf/nginx.conf", "/opt/redis/conf/redis.conf",
       "/opt/redis/conf/sentinel.conf", "/opt/redis/bin/redis-server"},
      {"/opt/redis/conf/redis.conf", "/opt/nginx/sbin/nginx",
       "/opt/nginx/sbin/nginx-debug"},
      {},
      {"/opt/nginx/conf/nginx.conf", "/opt/nginx/conf/nginx.conf"},
  };
  ExtractionScratch scratch;
  for (int pass = 0; pass < 2; ++pass) {
    for (const auto& paths : changesets) {
      const std::vector<bool> executable(paths.size(), true);
      expect_split_matches_reference(paths, executable, scratch);
    }
  }
}

}  // namespace
}  // namespace praxi::columbus
