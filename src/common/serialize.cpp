#include "common/serialize.hpp"

#include <filesystem>
#include <fstream>
#include <system_error>

#include "common/hash.hpp"
#include "obs/metrics.hpp"
#include "obs/scoped_timer.hpp"

#include <fcntl.h>
#include <unistd.h>

namespace praxi {

namespace {

// Snapshot IO accounting (docs/OBSERVABILITY.md): byte counters advance on
// success only, so a failed save/load never inflates the totals.
obs::Counter& write_bytes_counter() {
  static obs::Counter& c = obs::MetricsRegistry::global().counter(
      "praxi_serialize_write_bytes_total",
      "Bytes durably written by write_file_atomic()");
  return c;
}

obs::Histogram& write_seconds_histogram() {
  static obs::Histogram& h = obs::MetricsRegistry::global().histogram(
      "praxi_serialize_write_seconds",
      "Latency of one atomic snapshot write (temp + fsync + rename)",
      obs::latency_buckets());
  return h;
}

obs::Counter& read_bytes_counter() {
  static obs::Counter& c = obs::MetricsRegistry::global().counter(
      "praxi_serialize_read_bytes_total", "Bytes read by read_file()");
  return c;
}

obs::Histogram& read_seconds_histogram() {
  static obs::Histogram& h = obs::MetricsRegistry::global().histogram(
      "praxi_serialize_read_seconds", "Latency of one whole-file read",
      obs::latency_buckets());
  return h;
}

}  // namespace

// ---------------------------------------------------------------------------
// Snapshot envelope
// ---------------------------------------------------------------------------

std::string seal_snapshot(std::uint32_t magic, std::uint32_t version,
                          std::string_view payload) {
  BinaryWriter w;
  w.put<std::uint32_t>(magic);
  w.put<std::uint32_t>(version);
  w.put<std::uint64_t>(payload.size());
  w.put<std::uint32_t>(crc32c(payload));
  std::string out = w.take();
  out.append(payload);
  return out;
}

Snapshot open_snapshot(std::string_view bytes, std::uint32_t magic,
                       std::uint32_t min_version, std::uint32_t max_version) {
  BinaryReader r(bytes);
  if (bytes.size() < kSnapshotHeaderBytes) {
    throw SerializeError("snapshot shorter than envelope header", bytes.size());
  }
  const auto found_magic = r.get<std::uint32_t>();
  if (found_magic != magic) {
    throw SerializeError("bad snapshot magic: expected " +
                             std::to_string(magic) + ", found " +
                             std::to_string(found_magic),
                         0);
  }
  const auto version = r.get<std::uint32_t>();
  if (version < min_version || version > max_version) {
    throw VersionError(version, min_version, max_version);
  }
  const auto payload_len = r.get<std::uint64_t>();
  const auto stored_crc = r.get<std::uint32_t>();
  if (payload_len != r.remaining()) {
    throw SerializeError("snapshot payload length mismatch: header says " +
                             std::to_string(payload_len) + ", have " +
                             std::to_string(r.remaining()) +
                             " (truncated or torn snapshot)",
                         r.position());
  }
  const std::string_view payload = bytes.substr(kSnapshotHeaderBytes);
  const auto actual_crc = crc32c(payload);
  if (actual_crc != stored_crc) {
    throw SerializeError("snapshot checksum mismatch: stored " +
                             std::to_string(stored_crc) + ", computed " +
                             std::to_string(actual_crc),
                         kSnapshotHeaderBytes);
  }
  return Snapshot{version, payload};
}

// ---------------------------------------------------------------------------
// File IO
// ---------------------------------------------------------------------------

void write_file(const std::string& path, std::string_view bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw SerializeError("cannot open for write: " + path);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  if (!out) throw SerializeError("short write: " + path);
}

void write_file_atomic(const std::string& path, std::string_view bytes) {
  obs::ScopedTimer timer(write_seconds_histogram());
  // Temp file must live in the target's directory: rename(2) is only atomic
  // within one filesystem.
  std::string tmp = path + ".tmp.XXXXXX";
  const int fd = ::mkstemp(tmp.data());
  if (fd < 0) {
    throw SerializeError("cannot create temp file for atomic write: " + tmp);
  }

  auto fail = [&](const std::string& what) {
    ::close(fd);
    ::unlink(tmp.c_str());
    throw SerializeError(what + ": " + tmp);
  };

  const char* p = bytes.data();
  std::size_t left = bytes.size();
  while (left > 0) {
    const ::ssize_t n = ::write(fd, p, left);
    if (n < 0) fail("short write during atomic write");
    p += n;
    left -= static_cast<std::size_t>(n);
  }
  // The data must be durable BEFORE the rename publishes it; otherwise a
  // crash after the rename could still surface a torn file.
  if (::fsync(fd) != 0) fail("fsync failed during atomic write");
  if (::close(fd) != 0) {
    ::unlink(tmp.c_str());
    throw SerializeError("close failed during atomic write: " + tmp);
  }

  if (testhooks::simulate_crash_before_rename) {
    throw SerializeError("simulated crash before rename: " + path);
  }

  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    ::unlink(tmp.c_str());
    throw SerializeError("rename failed: " + tmp + " -> " + path);
  }

  // Make the rename itself durable. Failure here is not fatal to
  // correctness of the contents (the file is complete either way), so fall
  // back silently on filesystems that reject directory fsync.
  const auto slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos ? "." : path.substr(0, slash);
  const int dirfd = ::open(dir.c_str(), O_RDONLY);
  if (dirfd >= 0) {
    ::fsync(dirfd);
    ::close(dirfd);
  }
  write_bytes_counter().inc(bytes.size());
}

std::string read_file(const std::string& path) {
  obs::ScopedTimer timer(read_seconds_histogram());
  // ifstream will "open" a directory on some platforms and only fail at the
  // first read — with a misleading size from tellg() — so check the type
  // up front.
  std::error_code ec;
  if (!std::filesystem::is_regular_file(path, ec)) {
    throw SerializeError("cannot read (not a regular file): " + path);
  }
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) throw SerializeError("cannot open for read: " + path);
  const auto size = in.tellg();
  if (size == std::ifstream::pos_type(-1)) {
    throw SerializeError("cannot determine size (not a regular file?): " +
                         path);
  }
  in.seekg(0);
  std::string bytes(static_cast<std::size_t>(size), '\0');
  in.read(bytes.data(), size);
  if (!in) throw SerializeError("short read: " + path);
  read_bytes_counter().inc(bytes.size());
  return bytes;
}

}  // namespace praxi
