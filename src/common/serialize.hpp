// Minimal binary (de)serialization used for model and changeset persistence.
// Little-endian, length-prefixed; enough for our on-disk artifacts without
// pulling in a serialization framework.
//
// Robustness contract (docs/PERSISTENCE.md):
//   * Every persistent artifact and wire message is wrapped in a snapshot
//     envelope — magic, format-version u32, payload length u64, CRC32C —
//     sealed by seal_snapshot() and verified by open_snapshot(). Arbitrary
//     or corrupted bytes always yield SerializeError (VersionError for a
//     version outside the supported range), never UB, a crash, or an
//     unbounded allocation.
//   * BinaryReader bounds-checks every read against the remaining bytes and
//     reports the byte offset at which decoding failed.
//   * write_file_atomic() makes snapshots crash-safe: temp file in the same
//     directory + fsync + rename, so a reader sees either the complete old
//     snapshot or the complete new one, never a torn file.
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace praxi {

class SerializeError : public std::runtime_error {
 public:
  static constexpr std::size_t kNoOffset = static_cast<std::size_t>(-1);

  explicit SerializeError(const std::string& what)
      : std::runtime_error(what), offset_(kNoOffset) {}
  SerializeError(const std::string& what, std::size_t offset)
      : std::runtime_error(what + " (at byte " + std::to_string(offset) + ")"),
        offset_(offset) {}

  /// Byte offset (within the buffer being decoded) where decoding failed;
  /// kNoOffset when the failure is not positional (e.g. an IO error).
  std::size_t offset() const { return offset_; }

 private:
  std::size_t offset_;
};

/// A structurally intact snapshot whose format version is outside the range
/// the running binary supports. Distinguished from plain corruption so
/// ingest layers can report version skew separately (e.g. an old server
/// receiving reports from upgraded agents).
class VersionError : public SerializeError {
 public:
  VersionError(std::uint32_t found, std::uint32_t min_supported,
               std::uint32_t max_supported)
      : SerializeError("unsupported snapshot version " + std::to_string(found) +
                           " (supported: " + std::to_string(min_supported) +
                           ".." + std::to_string(max_supported) + ")",
                       sizeof(std::uint32_t)),
        found_(found) {}

  std::uint32_t found() const { return found_; }

 private:
  std::uint32_t found_;
};

/// Appends primitives/strings/vectors to an owned byte buffer.
class BinaryWriter {
 public:
  template <typename T>
  void put(T value) {
    static_assert(std::is_trivially_copyable_v<T>);
    const auto old = buf_.size();
    buf_.resize(old + sizeof(T));
    std::memcpy(buf_.data() + old, &value, sizeof(T));
  }

  void put_string(std::string_view s) {
    if (s.size() > UINT32_MAX)
      throw SerializeError("string too long to serialize");
    put<std::uint32_t>(static_cast<std::uint32_t>(s.size()));
    buf_.insert(buf_.end(), s.begin(), s.end());
  }

  template <typename T>
  void put_vector(const std::vector<T>& v) {
    put_vector(std::span<const T>(v));
  }

  template <typename T>
  void put_vector(std::span<const T> v) {
    static_assert(std::is_trivially_copyable_v<T>);
    put<std::uint64_t>(v.size());
    const auto old = buf_.size();
    buf_.resize(old + v.size() * sizeof(T));
    if (!v.empty()) std::memcpy(buf_.data() + old, v.data(), v.size() * sizeof(T));
  }

  const std::string& bytes() const { return buf_; }
  std::string take() { return std::move(buf_); }
  std::size_t size() const { return buf_.size(); }

 private:
  std::string buf_;
};

/// Sequentially decodes a byte buffer written by BinaryWriter. Every read is
/// bounds-checked; failures throw SerializeError carrying the byte offset.
class BinaryReader {
 public:
  explicit BinaryReader(std::string_view data) : data_(data) {}

  template <typename T>
  T get() {
    static_assert(std::is_trivially_copyable_v<T>);
    require(sizeof(T));
    T value;
    std::memcpy(&value, data_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return value;
  }

  std::string get_string() { return std::string(get_string_view()); }

  /// Like get_string, but returns a view into the decoded buffer: valid
  /// only as long as the bytes passed to the constructor.
  std::string_view get_string_view() {
    const auto len = get<std::uint32_t>();
    require(len);
    const std::string_view s = data_.substr(pos_, len);
    pos_ += len;
    return s;
  }

  template <typename T>
  std::vector<T> get_vector() {
    static_assert(std::is_trivially_copyable_v<T>);
    const auto count = get<std::uint64_t>();
    // Bound the element count by the bytes actually present BEFORE
    // allocating, so a hostile length field cannot trigger a giant
    // allocation (or overflow count * sizeof(T)).
    if (count > remaining() / sizeof(T)) {
      throw SerializeError(
          "vector length " + std::to_string(count) + " exceeds remaining bytes",
          pos_);
    }
    std::vector<T> v(static_cast<std::size_t>(count));
    if (count > 0) std::memcpy(v.data(), data_.data() + pos_, count * sizeof(T));
    pos_ += count * sizeof(T);
    return v;
  }

  bool at_end() const { return pos_ == data_.size(); }
  std::size_t remaining() const { return data_.size() - pos_; }
  std::size_t position() const { return pos_; }

  /// Throws unless the buffer was consumed exactly — trailing bytes mean the
  /// payload length lied about its contents.
  void require_end(const char* what) const {
    if (!at_end()) {
      throw SerializeError(std::string(what) + ": " +
                               std::to_string(remaining()) + " trailing bytes",
                           pos_);
    }
  }

 private:
  void require(std::size_t n) const {
    if (data_.size() - pos_ < n) {
      throw SerializeError("truncated input: need " + std::to_string(n) +
                               " bytes, have " +
                               std::to_string(data_.size() - pos_),
                           pos_);
    }
  }

  std::string_view data_;
  std::size_t pos_ = 0;
};

// ---------------------------------------------------------------------------
// Snapshot envelope
// ---------------------------------------------------------------------------

/// Envelope layout: [magic u32][version u32][payload_len u64][crc32c u32]
/// followed by payload_len payload bytes. The CRC covers the payload only;
/// header corruption is caught by the explicit magic/version/length checks.
inline constexpr std::size_t kSnapshotHeaderBytes = 20;

/// Wraps `payload` in a checksummed, versioned envelope.
std::string seal_snapshot(std::uint32_t magic, std::uint32_t version,
                          std::string_view payload);

struct Snapshot {
  std::uint32_t version = 0;
  std::string_view payload;  ///< view into the bytes passed to open_snapshot
};

/// Verifies the envelope around `bytes` and returns the payload view.
/// Throws SerializeError on a short buffer, wrong magic, length mismatch
/// (truncated or torn snapshot, trailing bytes), or checksum mismatch;
/// throws VersionError when the version lies outside [min_version,
/// max_version].
Snapshot open_snapshot(std::string_view bytes, std::uint32_t magic,
                       std::uint32_t min_version, std::uint32_t max_version);

// ---------------------------------------------------------------------------
// File IO
// ---------------------------------------------------------------------------

/// Writes `bytes` to `path`, replacing any existing file. Throws on IO error.
/// NOT crash-safe: a crash mid-write leaves a torn file. Use
/// write_file_atomic() for anything a later run must be able to load.
void write_file(const std::string& path, std::string_view bytes);

/// Crash-safe replacement write: writes to a temp file in the same
/// directory, fsyncs it, then atomically renames it over `path` (and syncs
/// the directory). After a crash at any point, `path` holds either the
/// complete previous contents or the complete new contents — never a torn
/// mix. A crash between temp-write and rename may leave a stale
/// "<path>.tmp.*" file behind; loaders never read those.
void write_file_atomic(const std::string& path, std::string_view bytes);

/// Reads the entire file at `path`. Throws on IO error (including
/// unreadable size, e.g. `path` names a directory).
std::string read_file(const std::string& path);

namespace testhooks {
/// When true, write_file_atomic() throws after the temp file is durably
/// written but before the rename — simulating a crash at the worst moment.
/// The temp file is left behind, exactly as a real crash would leave it.
inline bool simulate_crash_before_rename = false;
}  // namespace testhooks

}  // namespace praxi
