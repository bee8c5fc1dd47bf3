// Tests for feature hashing (ml/features.hpp).
#include "ml/features.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <utility>
#include <vector>

namespace praxi::ml {
namespace {

using Tokens = std::vector<std::pair<std::string, float>>;

/// Hashes (token, weight) pairs the way the tags -> features kernel does:
/// index_of per token, then sum_collisions.
FeatureVector hash(const FeatureHasher& hasher, const Tokens& tokens) {
  FeatureVector features;
  for (const auto& [token, weight] : tokens) {
    features.push_back(Feature{hasher.index_of(token), weight});
  }
  sum_collisions(features);
  return features;
}

TEST(FeatureHasher, Deterministic) {
  FeatureHasher hasher(18);
  const Tokens tokens{{"mysql", 3.0f}, {"mysqld", 1.0f}};
  EXPECT_EQ(hash(hasher, tokens), hash(hasher, tokens));
}

TEST(FeatureHasher, IndicesWithinSpace) {
  FeatureHasher hasher(10);
  Tokens tokens;
  for (int i = 0; i < 500; ++i) {
    tokens.emplace_back("token" + std::to_string(i), 1.0f);
  }
  for (const Feature& f : hash(hasher, tokens)) {
    EXPECT_LT(f.index, hasher.space_size());
  }
}

TEST(FeatureHasher, OutputSortedAndUnique) {
  FeatureHasher hasher(8);  // tiny space forces collisions
  Tokens tokens;
  for (int i = 0; i < 1000; ++i) {
    tokens.emplace_back("t" + std::to_string(i), 1.0f);
  }
  const FeatureVector features = hash(hasher, tokens);
  for (std::size_t i = 1; i < features.size(); ++i) {
    EXPECT_LT(features[i - 1].index, features[i].index);
  }
}

TEST(FeatureHasher, CollisionsSumValues) {
  FeatureHasher hasher(18);
  const Tokens tokens{{"same", 2.0f}, {"same", 3.0f}};
  const FeatureVector features = hash(hasher, tokens);
  ASSERT_EQ(features.size(), 1u);
  EXPECT_FLOAT_EQ(features[0].value, 5.0f);
}

TEST(FeatureHasher, TotalMassConserved) {
  FeatureHasher hasher(6);
  Tokens tokens;
  float total = 0.0f;
  for (int i = 0; i < 300; ++i) {
    tokens.emplace_back("w" + std::to_string(i), 1.0f);
    total += 1.0f;
  }
  float hashed_total = 0.0f;
  for (const Feature& f : hash(hasher, tokens)) hashed_total += f.value;
  EXPECT_FLOAT_EQ(hashed_total, total);
}

TEST(FeatureHasher, EmptyInput) {
  FeatureHasher hasher(18);
  EXPECT_TRUE(hash(hasher, Tokens{}).empty());
}

TEST(FeatureHasher, BadBitsThrow) {
  EXPECT_THROW(FeatureHasher(0), std::invalid_argument);
  EXPECT_THROW(FeatureHasher(31), std::invalid_argument);
}

TEST(FeatureHasher, DifferentSeedsRemapTokens) {
  FeatureHasher a(18, 0), b(18, 1);
  EXPECT_NE(a.index_of("mysql"), b.index_of("mysql"));
}

TEST(L2Normalize, UnitNorm) {
  FeatureVector v{{1, 3.0f}, {5, 4.0f}};
  l2_normalize(v);
  EXPECT_FLOAT_EQ(v[0].value, 0.6f);
  EXPECT_FLOAT_EQ(v[1].value, 0.8f);
  double norm = 0;
  for (const auto& f : v) norm += double(f.value) * f.value;
  EXPECT_NEAR(norm, 1.0, 1e-6);
}

TEST(L2Normalize, ZeroVectorUntouched) {
  FeatureVector v{{1, 0.0f}};
  l2_normalize(v);
  EXPECT_FLOAT_EQ(v[0].value, 0.0f);
  FeatureVector empty;
  l2_normalize(empty);
  EXPECT_TRUE(empty.empty());
}

// Property sweep over hash widths: hashing must preserve enough information
// that distinct small token sets map to distinct vectors.
class HasherWidthSweep : public ::testing::TestWithParam<unsigned> {};

TEST_P(HasherWidthSweep, DistinctTokenSetsDistinctVectors) {
  FeatureHasher hasher(GetParam());
  const auto a = hash(hasher, Tokens{{"mysql", 1.0f}, {"mysqld", 1.0f}});
  const auto b = hash(hasher, Tokens{{"nginx", 1.0f}, {"nginxctl", 1.0f}});
  EXPECT_NE(a, b);
}

INSTANTIATE_TEST_SUITE_P(Widths, HasherWidthSweep,
                         ::testing::Values(8u, 12u, 18u, 22u, 26u));

}  // namespace
}  // namespace praxi::ml
