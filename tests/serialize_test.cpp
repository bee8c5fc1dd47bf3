// Tests for the binary serialization helpers (common/serialize.hpp):
// reader/writer primitives, the CRC32C implementation, the snapshot
// envelope, and the (atomic) file IO layer.
#include "common/serialize.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>

#include "common/hash.hpp"
#include "common/rng.hpp"

namespace praxi {
namespace {

TEST(BinaryRoundTrip, Primitives) {
  BinaryWriter w;
  w.put<std::uint32_t>(0xDEADBEEFu);
  w.put<std::int64_t>(-42);
  w.put<float>(3.5f);
  w.put<double>(-2.25);
  w.put<std::uint8_t>(7);

  BinaryReader r(w.bytes());
  EXPECT_EQ(r.get<std::uint32_t>(), 0xDEADBEEFu);
  EXPECT_EQ(r.get<std::int64_t>(), -42);
  EXPECT_EQ(r.get<float>(), 3.5f);
  EXPECT_EQ(r.get<double>(), -2.25);
  EXPECT_EQ(r.get<std::uint8_t>(), 7);
  EXPECT_TRUE(r.at_end());
}

TEST(BinaryRoundTrip, StringsIncludingEmptyAndBinary) {
  BinaryWriter w;
  w.put_string("");
  w.put_string("mysql-server");
  w.put_string(std::string("\0\x01\xff", 3));

  BinaryReader r(w.bytes());
  EXPECT_EQ(r.get_string(), "");
  EXPECT_EQ(r.get_string(), "mysql-server");
  EXPECT_EQ(r.get_string(), std::string("\0\x01\xff", 3));
}

TEST(BinaryRoundTrip, Vectors) {
  BinaryWriter w;
  w.put_vector(std::vector<float>{1.0f, -2.0f, 0.5f});
  w.put_vector(std::vector<std::uint64_t>{});

  BinaryReader r(w.bytes());
  EXPECT_EQ(r.get_vector<float>(), (std::vector<float>{1.0f, -2.0f, 0.5f}));
  EXPECT_TRUE(r.get_vector<std::uint64_t>().empty());
  EXPECT_TRUE(r.at_end());
}

TEST(BinaryReader, ThrowsOnTruncatedPrimitive) {
  BinaryWriter w;
  w.put<std::uint32_t>(1);
  BinaryReader r(std::string_view(w.bytes()).substr(0, 2));
  EXPECT_THROW(r.get<std::uint32_t>(), SerializeError);
}

TEST(BinaryReader, ThrowsOnTruncatedString) {
  BinaryWriter w;
  w.put_string("long-enough-string");
  BinaryReader r(std::string_view(w.bytes()).substr(0, 6));
  EXPECT_THROW(r.get_string(), SerializeError);
}

TEST(BinaryReader, ThrowsOnAbsurdVectorLength) {
  BinaryWriter w;
  w.put<std::uint64_t>(1ull << 60);  // vector "length"
  BinaryReader r(w.bytes());
  EXPECT_THROW(r.get_vector<float>(), SerializeError);
}

TEST(BinaryReader, RemainingTracksPosition) {
  BinaryWriter w;
  w.put<std::uint32_t>(5);
  w.put<std::uint32_t>(6);
  BinaryReader r(w.bytes());
  EXPECT_EQ(r.remaining(), 8u);
  r.get<std::uint32_t>();
  EXPECT_EQ(r.remaining(), 4u);
}

TEST(BinaryReader, RequireEndRejectsTrailingBytes) {
  BinaryWriter w;
  w.put<std::uint32_t>(1);
  w.put<std::uint8_t>(0);
  BinaryReader r(w.bytes());
  r.get<std::uint32_t>();
  EXPECT_THROW(r.require_end("artifact"), SerializeError);
}

TEST(BinaryReader, ErrorsCarryTheFailingOffset) {
  BinaryWriter w;
  w.put<std::uint32_t>(7);
  BinaryReader r(w.bytes());
  r.get<std::uint32_t>();
  try {
    r.get<std::uint64_t>();  // nothing left
    FAIL() << "expected SerializeError";
  } catch (const SerializeError& e) {
    EXPECT_EQ(e.offset(), 4u);
    EXPECT_NE(std::string(e.what()).find("at byte 4"), std::string::npos);
  }
}

// ---------------------------------------------------------------------------
// CRC32C
// ---------------------------------------------------------------------------

TEST(Crc32c, KnownAnswerVector) {
  // The standard CRC-32C check value (RFC 3720 appendix / iSCSI).
  EXPECT_EQ(crc32c("123456789"), 0xE3069283u);
}

TEST(Crc32c, EmptyInputIsZero) { EXPECT_EQ(crc32c(""), 0u); }

TEST(Crc32c, IncrementalMatchesOneShot) {
  const std::string a = "praxi-snapshot-";
  const std::string b = "payload-bytes";
  EXPECT_EQ(crc32c(b, crc32c(a)), crc32c(a + b));
}

TEST(Crc32c, KnownAnswerVectorOnTheTablePath) {
  EXPECT_EQ(detail::crc32c_table("123456789"), 0xE3069283u);
}

TEST(Crc32c, DispatchedPathMatchesTableAtEveryLengthAndAlignment) {
  // crc32c() may run on a hardware instruction that consumes 8 bytes at a
  // time after an unaligned head; the table is the reference. Cover every
  // head/body/tail split: lengths 0..4100 at start offsets 0..15, each with
  // a random running seed.
  constexpr std::size_t kMaxLen = 4100;
  constexpr std::size_t kAlignments = 16;
  Rng rng(20261017);
  std::string buffer(kMaxLen + kAlignments, '\0');
  for (auto& c : buffer) c = static_cast<char>(rng.next() & 0xFF);
  std::size_t mismatches = 0;
  std::string first;
  for (std::size_t offset = 0; offset < kAlignments; ++offset) {
    for (std::size_t len = 0; len <= kMaxLen; ++len) {
      const std::string_view data(buffer.data() + offset, len);
      const auto seed = static_cast<std::uint32_t>(rng.next());
      if (crc32c(data, seed) == detail::crc32c_table(data, seed)) continue;
      if (mismatches++ == 0) {
        first = "offset " + std::to_string(offset) + " len " +
                std::to_string(len) + " seed " + std::to_string(seed);
      }
    }
  }
  EXPECT_EQ(mismatches, 0u) << "first mismatch at " << first;
}

TEST(Crc32c, IncrementalMatchesOneShotAcrossTheBlockBoundary) {
  // Split points around the 8-byte block the hardware path consumes, on
  // both sides of the seam and at several base alignments.
  Rng rng(7);
  std::string buffer(64, '\0');
  for (auto& c : buffer) c = static_cast<char>(rng.next() & 0xFF);
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t total = 0; total <= 40; ++total) {
      const std::string_view all(buffer.data() + offset, total);
      for (std::size_t split = 0; split <= total; ++split) {
        const auto a = all.substr(0, split);
        const auto b = all.substr(split);
        EXPECT_EQ(crc32c(b, crc32c(a)), crc32c(all))
            << "offset " << offset << " split " << split << " of " << total;
        EXPECT_EQ(detail::crc32c_table(b, detail::crc32c_table(a)),
                  crc32c(all));
      }
    }
  }
}

TEST(Crc32c, EveryScribbledByteChangesTheChecksum) {
  const std::string base(64, '\x5a');
  const auto clean = crc32c(base);
  for (std::size_t i = 0; i < base.size(); ++i) {
    for (unsigned flip : {0x01u, 0x80u, 0xFFu}) {
      std::string dirty = base;
      dirty[i] =
          static_cast<char>(static_cast<unsigned char>(dirty[i]) ^ flip);
      EXPECT_NE(crc32c(dirty), clean) << "offset " << i << " flip " << flip;
    }
  }
}

// ---------------------------------------------------------------------------
// Snapshot envelope
// ---------------------------------------------------------------------------

constexpr std::uint32_t kTestMagic = 0x54455354u;  // "TSET"

TEST(SnapshotEnvelope, SealOpenRoundTrip) {
  const std::string payload("envelope\0payload", 16);
  const std::string sealed = seal_snapshot(kTestMagic, 3, payload);
  EXPECT_EQ(sealed.size(), kSnapshotHeaderBytes + payload.size());
  const Snapshot snap = open_snapshot(sealed, kTestMagic, 1, 5);
  EXPECT_EQ(snap.version, 3u);
  EXPECT_EQ(snap.payload, payload);
}

TEST(SnapshotEnvelope, EmptyPayloadRoundTrips) {
  const std::string sealed = seal_snapshot(kTestMagic, 1, "");
  EXPECT_EQ(open_snapshot(sealed, kTestMagic, 1, 1).payload, "");
}

TEST(SnapshotEnvelope, WrongMagicRejected) {
  const std::string sealed = seal_snapshot(kTestMagic, 1, "x");
  EXPECT_THROW(open_snapshot(sealed, kTestMagic + 1, 1, 1), SerializeError);
}

TEST(SnapshotEnvelope, VersionOutsideRangeThrowsVersionError) {
  const std::string too_new = seal_snapshot(kTestMagic, 9, "x");
  const std::string too_old = seal_snapshot(kTestMagic, 1, "x");
  EXPECT_THROW(open_snapshot(too_new, kTestMagic, 2, 4), VersionError);
  EXPECT_THROW(open_snapshot(too_old, kTestMagic, 2, 4), VersionError);
  try {
    open_snapshot(too_new, kTestMagic, 2, 4);
  } catch (const VersionError& e) {
    EXPECT_EQ(e.found(), 9u);
  }
  // ...but an in-range version is not a VersionError even if corrupt later.
  EXPECT_NO_THROW(open_snapshot(too_old, kTestMagic, 1, 1));
}

TEST(SnapshotEnvelope, TruncationAtEveryPrefixRejected) {
  const std::string sealed = seal_snapshot(kTestMagic, 1, "payload-bytes");
  for (std::size_t keep = 0; keep < sealed.size(); ++keep) {
    EXPECT_THROW(
        open_snapshot(std::string_view(sealed).substr(0, keep), kTestMagic, 1,
                      1),
        SerializeError)
        << "kept " << keep << " of " << sealed.size();
  }
}

TEST(SnapshotEnvelope, TrailingByteRejected) {
  std::string sealed = seal_snapshot(kTestMagic, 1, "payload");
  sealed.push_back('\0');
  EXPECT_THROW(open_snapshot(sealed, kTestMagic, 1, 1), SerializeError);
}

TEST(SnapshotEnvelope, EveryPossibleByteFlipRejected) {
  // Header flips hit the magic/version/length/crc checks; payload flips are
  // error bursts of <= 8 bits, which CRC32C detects unconditionally. So a
  // corrupted snapshot NEVER opens, regardless of where the damage lands.
  const std::string sealed = seal_snapshot(kTestMagic, 1, "payload-bytes");
  for (std::size_t i = 0; i < sealed.size(); ++i) {
    for (unsigned flip : {0x01u, 0x10u, 0xFFu}) {
      std::string dirty = sealed;
      dirty[i] =
          static_cast<char>(static_cast<unsigned char>(dirty[i]) ^ flip);
      EXPECT_THROW(open_snapshot(dirty, kTestMagic, 1, 1), SerializeError)
          << "offset " << i << " flip " << flip;
    }
  }
}

// ---------------------------------------------------------------------------
// File IO
// ---------------------------------------------------------------------------

std::string temp_path(const char* name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

TEST(FileIo, RoundTrip) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "praxi_serialize_test.bin")
          .string();
  const std::string payload("binary\0payload", 14);
  write_file(path, payload);
  EXPECT_EQ(read_file(path), payload);
  std::remove(path.c_str());
}

TEST(FileIo, ReadMissingFileThrows) {
  EXPECT_THROW(read_file("/nonexistent/praxi/file.bin"), SerializeError);
}

TEST(FileIo, WriteToBadPathThrows) {
  EXPECT_THROW(write_file("/nonexistent-dir-xyz/file.bin", "data"),
               SerializeError);
}

TEST(FileIo, ReadDirectoryThrows) {
  EXPECT_THROW(read_file(std::filesystem::temp_directory_path().string()),
               SerializeError);
}

TEST(FileIo, AtomicWriteRoundTripsAndOverwrites) {
  const std::string path = temp_path("praxi_atomic_test.bin");
  const std::string first("first\0snapshot", 14);
  const std::string second("second-snapshot-longer-than-the-first");
  write_file_atomic(path, first);
  EXPECT_EQ(read_file(path), first);
  write_file_atomic(path, second);
  EXPECT_EQ(read_file(path), second);
  std::remove(path.c_str());
}

TEST(FileIo, AtomicWriteToBadPathThrows) {
  EXPECT_THROW(write_file_atomic("/nonexistent-dir-xyz/file.bin", "data"),
               SerializeError);
}

TEST(FileIo, AtomicWriteLeavesNoTempFileOnSuccess) {
  namespace stdfs = std::filesystem;
  const auto dir = stdfs::temp_directory_path() / "praxi_atomic_clean";
  stdfs::create_directories(dir);
  write_file_atomic((dir / "model.bin").string(), "bytes");
  std::size_t entries = 0;
  for (const auto& entry : stdfs::directory_iterator(dir)) {
    ++entries;
    EXPECT_EQ(entry.path().filename().string(), "model.bin");
  }
  EXPECT_EQ(entries, 1u);
  stdfs::remove_all(dir);
}

TEST(FileIo, CrashBeforeRenameKeepsCompleteOldSnapshot) {
  namespace stdfs = std::filesystem;
  const auto dir = stdfs::temp_directory_path() / "praxi_atomic_crash";
  stdfs::create_directories(dir);
  const std::string path = (dir / "model.bin").string();
  const std::string old_snapshot = "complete-old-snapshot";
  write_file_atomic(path, old_snapshot);

  // "Crash" after the temp file is durable but before the rename commits.
  testhooks::simulate_crash_before_rename = true;
  EXPECT_THROW(write_file_atomic(path, "half-committed-new-snapshot"),
               SerializeError);
  testhooks::simulate_crash_before_rename = false;

  // The destination still holds the COMPLETE old contents, and the aborted
  // attempt is visible only as a stale temp file loaders never touch.
  EXPECT_EQ(read_file(path), old_snapshot);
  std::size_t stale = 0;
  for (const auto& entry : stdfs::directory_iterator(dir)) {
    const auto name = entry.path().filename().string();
    if (name != "model.bin") {
      EXPECT_EQ(name.rfind("model.bin.tmp.", 0), 0u) << name;
      ++stale;
    }
  }
  EXPECT_EQ(stale, 1u);

  // A later, uninterrupted save commits the new snapshot normally.
  write_file_atomic(path, "new-snapshot");
  EXPECT_EQ(read_file(path), "new-snapshot");
  stdfs::remove_all(dir);
}

}  // namespace
}  // namespace praxi
