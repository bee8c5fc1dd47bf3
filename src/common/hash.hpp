// MurmurHash3 — the hash family used by Vowpal Wabbit for input feature
// hashing (paper §III-C cites Murmurhash v3 [17]). Praxi's online learner
// uses murmur3_32 to map free-form tag strings into a 2^b weight table.
//
// Reference implementation: Austin Appleby, public domain (SMHasher).
#pragma once

#include <cstdint>
#include <string_view>

namespace praxi {

/// 32-bit MurmurHash3 (x86 variant) over an arbitrary byte string.
std::uint32_t murmur3_32(std::string_view data, std::uint32_t seed = 0) noexcept;

/// 128-bit MurmurHash3 (x64 variant); returns the low 64 bits. Used where a
/// wider hash lowers collision probability (e.g. changeset content digests).
std::uint64_t murmur3_128_low64(std::string_view data, std::uint64_t seed = 0) noexcept;

/// CRC-32C (Castagnoli polynomial 0x1EDC6F41, reflected). The checksum used
/// by the snapshot envelope (common/serialize.hpp) to detect torn writes and
/// bit rot in persisted models, stores, and wire messages. `seed` is the
/// running CRC for incremental use: crc32c(b, crc32c(a)) == crc32c(a + b).
///
/// The implementation is chosen once, at the first call: the SSE4.2 `crc32`
/// instruction when the CPU has it (x86), the ARMv8 CRC32 instructions when
/// the compiler targets them, else detail::crc32c_table. Every path returns
/// the same value, so no persisted or wire format depends on the host.
std::uint32_t crc32c(std::string_view data, std::uint32_t seed = 0) noexcept;

namespace detail {
/// The portable byte-at-a-time lookup-table CRC-32C: the fallback of
/// crc32c() and the reference its hardware paths are tested against.
std::uint32_t crc32c_table(std::string_view data,
                           std::uint32_t seed = 0) noexcept;
}  // namespace detail

/// Stable non-cryptographic combiner for incremental digests.
constexpr std::uint64_t hash_combine(std::uint64_t h, std::uint64_t v) noexcept {
  // 64-bit variant of boost::hash_combine with the splitmix64 constant.
  h ^= v + 0x9e3779b97f4a7c15ULL + (h << 12) + (h >> 4);
  return h;
}

}  // namespace praxi
