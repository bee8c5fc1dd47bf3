#include "ml/features.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace praxi::ml {

FeatureHasher::FeatureHasher(unsigned bits, std::uint32_t seed)
    : bits_(bits), mask_((1u << bits) - 1u), seed_(seed) {
  if (bits == 0 || bits > 30)
    throw std::invalid_argument("FeatureHasher: bits must be in [1, 30]");
}

void sum_collisions(FeatureVector& features) {
  std::sort(features.begin(), features.end(),
            [](const Feature& a, const Feature& b) { return a.index < b.index; });
  std::size_t kept = 0;
  for (const Feature& f : features) {
    if (kept > 0 && features[kept - 1].index == f.index) {
      features[kept - 1].value += f.value;
    } else {
      features[kept++] = f;
    }
  }
  features.resize(kept);
}

void l2_normalize(FeatureVector& features) {
  double norm_sq = 0.0;
  for (const Feature& f : features) norm_sq += double(f.value) * f.value;
  if (norm_sq <= 0.0) return;
  const float inv = static_cast<float>(1.0 / std::sqrt(norm_sq));
  for (Feature& f : features) f.value *= inv;
}

}  // namespace praxi::ml
