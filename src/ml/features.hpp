// Hashed sparse feature vectors — the Vowpal Wabbit "hashing trick" the
// paper highlights (§III-C): free-form, variable-length sets of plain-text
// strings become indices into a fixed 2^bits weight space via MurmurHash3,
// so no dictionary is ever required and new tags cost nothing to add.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "common/hash.hpp"

namespace praxi::ml {

struct Feature {
  std::uint32_t index = 0;
  float value = 0.0f;

  friend bool operator==(const Feature&, const Feature&) = default;
};

/// Sparse vector: strictly increasing indices, collided entries pre-summed.
using FeatureVector = std::vector<Feature>;

class FeatureHasher {
 public:
  /// `bits` is the width of the hashed feature space (VW's -b). 2^bits
  /// weight slots per scorer.
  explicit FeatureHasher(unsigned bits = 20, std::uint32_t seed = 0);

  unsigned bits() const { return bits_; }
  std::uint32_t space_size() const { return 1u << bits_; }

  std::uint32_t index_of(std::string_view token) const {
    return murmur3_32(token, seed_) & mask_;
  }

 private:
  unsigned bits_;
  std::uint32_t mask_;
  std::uint32_t seed_;
};

/// Sorts `features` by index and sums entries whose indices collided, in
/// place: the step that turns hashed (index, weight) pairs into a
/// FeatureVector.
void sum_collisions(FeatureVector& features);

/// L2-normalizes `features` in place (no-op on the zero vector).
void l2_normalize(FeatureVector& features);

}  // namespace praxi::ml
