#include "common/hash.hpp"

#include <cstring>

#if defined(__x86_64__)
#include <nmmintrin.h>
#define PRAXI_CRC32C_SSE42 1
#elif defined(__aarch64__) && defined(__ARM_FEATURE_CRC32) && \
    __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__
#include <arm_acle.h>
#define PRAXI_CRC32C_ARMV8 1
#endif

namespace praxi {
namespace {

inline std::uint32_t rotl32(std::uint32_t x, int r) noexcept {
  return (x << r) | (x >> (32 - r));
}

inline std::uint64_t rotl64(std::uint64_t x, int r) noexcept {
  return (x << r) | (x >> (64 - r));
}

inline std::uint32_t fmix32(std::uint32_t h) noexcept {
  h ^= h >> 16;
  h *= 0x85ebca6bU;
  h ^= h >> 13;
  h *= 0xc2b2ae35U;
  h ^= h >> 16;
  return h;
}

inline std::uint64_t fmix64(std::uint64_t k) noexcept {
  k ^= k >> 33;
  k *= 0xff51afd7ed558ccdULL;
  k ^= k >> 33;
  k *= 0xc4ceb9fe1a85ec53ULL;
  k ^= k >> 33;
  return k;
}

inline std::uint32_t load32(const char* p) noexcept {
  std::uint32_t v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

inline std::uint64_t load64(const char* p) noexcept {
  std::uint64_t v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

/// 256-entry lookup table for the reflected Castagnoli polynomial.
const std::uint32_t* crc32c_lookup() noexcept {
  static const auto table = [] {
    static std::uint32_t t[256];
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1u) ? (0x82f63b78U ^ (c >> 1)) : (c >> 1);
      }
      t[i] = c;
    }
    return t;
  }();
  return table;
}

#if defined(PRAXI_CRC32C_SSE42)

// Compiled for SSE4.2 without a global -msse4.2: only called after
// __builtin_cpu_supports("sse4.2") said yes. Bytes up to the first 8-byte
// boundary, then one crc32 instruction per 8 bytes, then the tail.
__attribute__((target("sse4.2"))) std::uint32_t crc32c_sse42(
    std::string_view data, std::uint32_t seed) noexcept {
  const char* p = data.data();
  std::size_t n = data.size();
  std::uint32_t crc = ~seed;
  while (n > 0 && (reinterpret_cast<std::uintptr_t>(p) & 7u) != 0) {
    crc = _mm_crc32_u8(crc, static_cast<unsigned char>(*p++));
    --n;
  }
  std::uint64_t wide = crc;
  for (; n >= 8; n -= 8, p += 8) wide = _mm_crc32_u64(wide, load64(p));
  crc = static_cast<std::uint32_t>(wide);
  while (n > 0) {
    crc = _mm_crc32_u8(crc, static_cast<unsigned char>(*p++));
    --n;
  }
  return ~crc;
}

#elif defined(PRAXI_CRC32C_ARMV8)

std::uint32_t crc32c_armv8(std::string_view data,
                           std::uint32_t seed) noexcept {
  const char* p = data.data();
  std::size_t n = data.size();
  std::uint32_t crc = ~seed;
  while (n > 0 && (reinterpret_cast<std::uintptr_t>(p) & 7u) != 0) {
    crc = __crc32cb(crc, static_cast<std::uint8_t>(*p++));
    --n;
  }
  for (; n >= 8; n -= 8, p += 8) crc = __crc32cd(crc, load64(p));
  while (n > 0) {
    crc = __crc32cb(crc, static_cast<std::uint8_t>(*p++));
    --n;
  }
  return ~crc;
}

#endif

using Crc32cFn = std::uint32_t (*)(std::string_view, std::uint32_t) noexcept;

Crc32cFn select_crc32c() noexcept {
#if defined(PRAXI_CRC32C_SSE42)
  __builtin_cpu_init();
  if (__builtin_cpu_supports("sse4.2")) return &crc32c_sse42;
#elif defined(PRAXI_CRC32C_ARMV8)
  return &crc32c_armv8;
#endif
  return &detail::crc32c_table;
}

}  // namespace

namespace detail {

std::uint32_t crc32c_table(std::string_view data, std::uint32_t seed) noexcept {
  const std::uint32_t* table = crc32c_lookup();
  std::uint32_t crc = ~seed;
  for (const char ch : data) {
    crc = table[(crc ^ static_cast<unsigned char>(ch)) & 0xFFu] ^ (crc >> 8);
  }
  return ~crc;
}

}  // namespace detail

std::uint32_t crc32c(std::string_view data, std::uint32_t seed) noexcept {
  static const Crc32cFn impl = select_crc32c();
  return impl(data, seed);
}

std::uint32_t murmur3_32(std::string_view data, std::uint32_t seed) noexcept {
  const char* p = data.data();
  const std::size_t len = data.size();
  const std::size_t nblocks = len / 4;

  std::uint32_t h1 = seed;
  constexpr std::uint32_t c1 = 0xcc9e2d51U;
  constexpr std::uint32_t c2 = 0x1b873593U;

  for (std::size_t i = 0; i < nblocks; ++i) {
    std::uint32_t k1 = load32(p + i * 4);
    k1 *= c1;
    k1 = rotl32(k1, 15);
    k1 *= c2;
    h1 ^= k1;
    h1 = rotl32(h1, 13);
    h1 = h1 * 5 + 0xe6546b64U;
  }

  const char* tail = p + nblocks * 4;
  std::uint32_t k1 = 0;
  switch (len & 3U) {
    case 3: k1 ^= static_cast<std::uint32_t>(static_cast<unsigned char>(tail[2])) << 16; [[fallthrough]];
    case 2: k1 ^= static_cast<std::uint32_t>(static_cast<unsigned char>(tail[1])) << 8; [[fallthrough]];
    case 1:
      k1 ^= static_cast<std::uint32_t>(static_cast<unsigned char>(tail[0]));
      k1 *= c1;
      k1 = rotl32(k1, 15);
      k1 *= c2;
      h1 ^= k1;
  }

  h1 ^= static_cast<std::uint32_t>(len);
  return fmix32(h1);
}

std::uint64_t murmur3_128_low64(std::string_view data, std::uint64_t seed) noexcept {
  const char* p = data.data();
  const std::size_t len = data.size();
  const std::size_t nblocks = len / 16;

  std::uint64_t h1 = seed;
  std::uint64_t h2 = seed;
  constexpr std::uint64_t c1 = 0x87c37b91114253d5ULL;
  constexpr std::uint64_t c2 = 0x4cf5ad432745937fULL;

  for (std::size_t i = 0; i < nblocks; ++i) {
    std::uint64_t k1 = load64(p + i * 16);
    std::uint64_t k2 = load64(p + i * 16 + 8);

    k1 *= c1;
    k1 = rotl64(k1, 31);
    k1 *= c2;
    h1 ^= k1;
    h1 = rotl64(h1, 27);
    h1 += h2;
    h1 = h1 * 5 + 0x52dce729ULL;

    k2 *= c2;
    k2 = rotl64(k2, 33);
    k2 *= c1;
    h2 ^= k2;
    h2 = rotl64(h2, 31);
    h2 += h1;
    h2 = h2 * 5 + 0x38495ab5ULL;
  }

  const unsigned char* tail =
      reinterpret_cast<const unsigned char*>(p + nblocks * 16);
  std::uint64_t k1 = 0;
  std::uint64_t k2 = 0;
  switch (len & 15U) {
    case 15: k2 ^= static_cast<std::uint64_t>(tail[14]) << 48; [[fallthrough]];
    case 14: k2 ^= static_cast<std::uint64_t>(tail[13]) << 40; [[fallthrough]];
    case 13: k2 ^= static_cast<std::uint64_t>(tail[12]) << 32; [[fallthrough]];
    case 12: k2 ^= static_cast<std::uint64_t>(tail[11]) << 24; [[fallthrough]];
    case 11: k2 ^= static_cast<std::uint64_t>(tail[10]) << 16; [[fallthrough]];
    case 10: k2 ^= static_cast<std::uint64_t>(tail[9]) << 8; [[fallthrough]];
    case 9:
      k2 ^= static_cast<std::uint64_t>(tail[8]);
      k2 *= c2;
      k2 = rotl64(k2, 33);
      k2 *= c1;
      h2 ^= k2;
      [[fallthrough]];
    case 8: k1 ^= static_cast<std::uint64_t>(tail[7]) << 56; [[fallthrough]];
    case 7: k1 ^= static_cast<std::uint64_t>(tail[6]) << 48; [[fallthrough]];
    case 6: k1 ^= static_cast<std::uint64_t>(tail[5]) << 40; [[fallthrough]];
    case 5: k1 ^= static_cast<std::uint64_t>(tail[4]) << 32; [[fallthrough]];
    case 4: k1 ^= static_cast<std::uint64_t>(tail[3]) << 24; [[fallthrough]];
    case 3: k1 ^= static_cast<std::uint64_t>(tail[2]) << 16; [[fallthrough]];
    case 2: k1 ^= static_cast<std::uint64_t>(tail[1]) << 8; [[fallthrough]];
    case 1:
      k1 ^= static_cast<std::uint64_t>(tail[0]);
      k1 *= c1;
      k1 = rotl64(k1, 31);
      k1 *= c2;
      h1 ^= k1;
  }

  h1 ^= static_cast<std::uint64_t>(len);
  h2 ^= static_cast<std::uint64_t>(len);
  h1 += h2;
  h2 += h1;
  h1 = fmix64(h1);
  h2 = fmix64(h2);
  h1 += h2;
  return h1;
}

}  // namespace praxi
