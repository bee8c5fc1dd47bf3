#include "service/wal.hpp"

#include <algorithm>
#include <cerrno>
#include <filesystem>
#include <optional>
#include <system_error>
#include <utility>

#include "common/serialize.hpp"
#include "obs/metrics.hpp"
#include "obs/scoped_timer.hpp"

#include <fcntl.h>
#include <unistd.h>

namespace praxi::service {

namespace {

// Record payload types. A settle record adds one identity; a snapshot
// record REPLACES the accumulated state (compaction).
constexpr std::uint8_t kRecordSettle = 1;
constexpr std::uint8_t kRecordSnapshot = 2;

constexpr std::string_view kSegmentPrefix = "wal-";
constexpr std::string_view kSegmentSuffix = ".seg";

// Minimum encoded size of one agent entry in a snapshot payload: agent
// length u32 + floor u64 + held count u64. Bounds the claimed agent count
// before any allocation trusts it.
constexpr std::size_t kMinSnapshotEntryBytes = 4 + 8 + 8;

/// Applies one settled sequence to a durable tracker view, folding the
/// contiguous prefix into the floor exactly like SequenceTracker does.
/// Idempotent — replaying the same record twice is a no-op.
void settle_into(WalTrackerState& tracker, std::uint64_t sequence) {
  if (sequence < tracker.floor) return;
  const auto it =
      std::lower_bound(tracker.held.begin(), tracker.held.end(), sequence);
  if (it != tracker.held.end() && *it == sequence) return;
  tracker.held.insert(it, sequence);
  std::size_t contiguous = 0;
  while (contiguous < tracker.held.size() &&
         tracker.held[contiguous] == tracker.floor + contiguous) {
    ++contiguous;
  }
  if (contiguous > 0) {
    tracker.floor += contiguous;
    tracker.held.erase(tracker.held.begin(),
                       tracker.held.begin() +
                           static_cast<std::ptrdiff_t>(contiguous));
  }
}

/// Strictly decodes one record payload into `state`. `record_offset` is the
/// record's position within the segment, used for error attribution.
void apply_wal_payload(std::string_view payload, WalState& state,
                       std::size_t record_offset) {
  BinaryReader r(payload);
  const auto type = r.get<std::uint8_t>();
  if (type == kRecordSettle) {
    const std::string agent_id = r.get_string();
    const auto sequence = r.get<std::uint64_t>();
    const auto outcome = r.get<std::uint8_t>();
    if (outcome != static_cast<std::uint8_t>(SettleOutcome::kProcessed)) {
      throw SerializeError(
          "unknown WAL settle outcome " + std::to_string(outcome),
          record_offset);
    }
    r.require_end("WAL settle record");
    settle_into(state[agent_id], sequence);
  } else if (type == kRecordSnapshot) {
    const auto agent_count = r.get<std::uint32_t>();
    if (agent_count > r.remaining() / kMinSnapshotEntryBytes) {
      throw SerializeError("WAL snapshot agent count " +
                               std::to_string(agent_count) +
                               " exceeds remaining bytes",
                           record_offset);
    }
    WalState replacement;
    for (std::uint32_t i = 0; i < agent_count; ++i) {
      std::string agent_id = r.get_string();
      WalTrackerState tracker;
      tracker.floor = r.get<std::uint64_t>();
      tracker.held = r.get_vector<std::uint64_t>();
      // Held sequences must be strictly ascending and above the floor —
      // anything else could not have been written by the compactor and
      // would corrupt SequenceTracker restoration.
      for (std::size_t h = 0; h < tracker.held.size(); ++h) {
        const bool ordered = h == 0 || tracker.held[h - 1] < tracker.held[h];
        if (tracker.held[h] < tracker.floor || !ordered) {
          throw SerializeError(
              "WAL snapshot held-set not strictly ascending above floor for "
              "agent \"" + agent_id + "\"",
              record_offset);
        }
      }
      if (replacement.count(agent_id) > 0) {
        throw SerializeError(
            "WAL snapshot repeats agent \"" + agent_id + "\"", record_offset);
      }
      replacement.emplace(std::move(agent_id), std::move(tracker));
    }
    r.require_end("WAL snapshot record");
    state = std::move(replacement);
  } else {
    throw SerializeError("unknown WAL record type " + std::to_string(type),
                         record_offset);
  }
}

}  // namespace

WalReplayResult replay_wal_segment(std::string_view bytes, bool last_segment,
                                   std::size_t max_record_bytes,
                                   WalState& state) {
  WalReplayResult result;
  std::size_t pos = 0;
  while (pos < bytes.size()) {
    const std::string_view tail = bytes.substr(pos);
    if (tail.size() < kSnapshotHeaderBytes) {
      if (last_segment) {
        result.torn_tail = true;
        break;
      }
      throw SerializeError("WAL record header truncated mid-segment", pos);
    }
    // Peek the header fields the envelope check needs up front: a hostile
    // or torn length must be classified before any byte of it is trusted.
    BinaryReader header(tail);
    const auto magic = header.get<std::uint32_t>();
    if (magic != kWalRecordMagic) {
      throw SerializeError(
          "bad WAL record magic " + std::to_string(magic), pos);
    }
    header.get<std::uint32_t>();  // version — range-checked by open_snapshot
    const auto payload_len = header.get<std::uint64_t>();
    if (payload_len > max_record_bytes) {
      // An implausible length is corruption even at the tail: a torn append
      // can shorten a record but never inflate its length field past the
      // writer's bound.
      throw SerializeError("WAL record claims " + std::to_string(payload_len) +
                               " payload bytes, bound is " +
                               std::to_string(max_record_bytes),
                           pos);
    }
    const std::size_t record_len =
        kSnapshotHeaderBytes + static_cast<std::size_t>(payload_len);
    if (tail.size() < record_len) {
      if (last_segment) {
        result.torn_tail = true;
        break;
      }
      throw SerializeError("WAL record truncated mid-segment", pos);
    }
    Snapshot snapshot;
    try {
      snapshot = open_snapshot(tail.substr(0, record_len), kWalRecordMagic,
                               kWalRecordVersion, kWalRecordVersion);
    } catch (const SerializeError& e) {
      // The record's bytes are fully present, so any envelope failure here
      // (CRC, version, ...) is corruption, not a torn write — rewrap with
      // the segment-relative offset.
      throw SerializeError(std::string("WAL record rejected: ") + e.what(),
                           pos);
    }
    try {
      apply_wal_payload(snapshot.payload, state, pos);
    } catch (const SerializeError& e) {
      throw SerializeError(
          std::string("WAL record payload rejected: ") + e.what(), pos);
    }
    pos += record_len;
    ++result.records;
  }
  result.valid_bytes = pos;
  return result;
}

std::string encode_wal_settle(std::string_view agent_id,
                              std::uint64_t sequence, SettleOutcome outcome) {
  BinaryWriter w;
  w.put<std::uint8_t>(kRecordSettle);
  w.put_string(agent_id);
  w.put<std::uint64_t>(sequence);
  w.put<std::uint8_t>(static_cast<std::uint8_t>(outcome));
  return seal_snapshot(kWalRecordMagic, kWalRecordVersion, w.bytes());
}

std::string encode_wal_snapshot(const WalState& state) {
  if (state.size() > UINT32_MAX) {
    throw SerializeError("WAL snapshot has too many agents");
  }
  BinaryWriter w;
  w.put<std::uint8_t>(kRecordSnapshot);
  w.put<std::uint32_t>(static_cast<std::uint32_t>(state.size()));
  for (const auto& [agent_id, tracker] : state) {
    w.put_string(agent_id);
    w.put<std::uint64_t>(tracker.floor);
    w.put_vector(tracker.held);
  }
  return seal_snapshot(kWalRecordMagic, kWalRecordVersion, w.bytes());
}

// ---------------------------------------------------------------------------
// WriteAheadLog
// ---------------------------------------------------------------------------

struct WriteAheadLog::Instruments {
  explicit Instruments(const std::string& server_label)
      : labels{{"server", server_label}},
        appended(obs::MetricsRegistry::global().counter(
            "praxi_wal_appended_total",
            "Settle records durably appended to the WAL", labels)),
        replayed(obs::MetricsRegistry::global().counter(
            "praxi_wal_replayed_total",
            "WAL records applied during startup replay", labels)),
        compactions(obs::MetricsRegistry::global().counter(
            "praxi_wal_compactions_total",
            "Snapshot+truncate compactions performed", labels)),
        fsync_seconds(obs::MetricsRegistry::global().histogram(
            "praxi_wal_fsync_seconds",
            "Latency of one batched WAL commit (write + fsync)",
            obs::latency_buckets(), labels)),
        replay_seconds(obs::MetricsRegistry::global().histogram(
            "praxi_wal_replay_seconds",
            "Startup replay latency, before the listener opens",
            obs::latency_buckets(), labels)),
        segment_bytes(obs::MetricsRegistry::global().gauge(
            "praxi_wal_segment_bytes", "Size of the live WAL segment",
            labels)),
        segments(obs::MetricsRegistry::global().gauge(
            "praxi_wal_segments", "WAL segment files on disk", labels)) {}

  obs::Labels labels;
  obs::Counter& appended;
  obs::Counter& replayed;
  obs::Counter& compactions;
  obs::Histogram& fsync_seconds;
  obs::Histogram& replay_seconds;
  obs::Gauge& segment_bytes;
  obs::Gauge& segments;
};

namespace {

/// Parses "wal-<digits>.seg" into its index; nullopt for anything else
/// (temp files from atomic writes, stray entries).
std::optional<std::uint64_t> parse_segment_name(const std::string& name) {
  if (name.size() <= kSegmentPrefix.size() + kSegmentSuffix.size())
    return std::nullopt;
  if (name.compare(0, kSegmentPrefix.size(), kSegmentPrefix) != 0)
    return std::nullopt;
  if (name.compare(name.size() - kSegmentSuffix.size(), kSegmentSuffix.size(),
                   kSegmentSuffix) != 0)
    return std::nullopt;
  const std::string digits = name.substr(
      kSegmentPrefix.size(),
      name.size() - kSegmentPrefix.size() - kSegmentSuffix.size());
  std::uint64_t index = 0;
  for (const char c : digits) {
    if (c < '0' || c > '9') return std::nullopt;
    index = index * 10 + static_cast<std::uint64_t>(c - '0');
  }
  return index;
}

std::vector<std::uint64_t> list_segment_indices(const std::string& dir) {
  std::vector<std::uint64_t> indices;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    const auto index = parse_segment_name(entry.path().filename().string());
    if (index.has_value()) indices.push_back(*index);
  }
  std::sort(indices.begin(), indices.end());
  return indices;
}

}  // namespace

std::string WriteAheadLog::segment_path(std::uint64_t index) const {
  std::string digits = std::to_string(index);
  if (digits.size() < 8) digits.insert(0, 8 - digits.size(), '0');
  return config_.dir + "/" + std::string(kSegmentPrefix) + digits +
         std::string(kSegmentSuffix);
}

WriteAheadLog::WriteAheadLog(WalConfig config) : config_(std::move(config)) {
  if (config_.dir.empty()) {
    throw SerializeError("WAL directory not configured");
  }
  std::error_code ec;
  std::filesystem::create_directories(config_.dir, ec);
  if (ec) {
    throw SerializeError("cannot create WAL directory " + config_.dir + ": " +
                         ec.message());
  }
  instruments_ = std::make_unique<Instruments>(config_.server_label);

  const std::vector<std::uint64_t> indices = list_segment_indices(config_.dir);
  if (indices.empty()) {
    open_live(1, 0);
  } else {
    obs::ScopedTimer replay_timer(instruments_->replay_seconds);
    std::size_t last_valid_bytes = 0;
    for (std::size_t i = 0; i < indices.size(); ++i) {
      const std::string path = segment_path(indices[i]);
      const std::string bytes = read_file(path);
      const bool last = i + 1 == indices.size();
      WalReplayResult replayed;
      try {
        replayed = replay_wal_segment(bytes, last, config_.max_record_bytes,
                                      restored_);
      } catch (const SerializeError& e) {
        throw SerializeError(std::string("WAL replay failed in ") + path +
                             ": " + e.what());
      }
      replayed_records_ += replayed.records;
      if (replayed.torn_tail) {
        // A crash mid-append left a partial record; those bytes were never
        // acknowledged, so dropping them is exactly-once-safe.
        std::filesystem::resize_file(path, replayed.valid_bytes, ec);
        if (ec) {
          throw SerializeError("cannot truncate torn WAL tail in " + path +
                               ": " + ec.message());
        }
      }
      if (last) last_valid_bytes = replayed.valid_bytes;
    }
    open_live(indices.back(), last_valid_bytes);
  }
  instruments_->replayed.inc(replayed_records_);
  instruments_->segment_bytes.set(static_cast<double>(live_bytes_));
  instruments_->segments.set(static_cast<double>(segment_count()));
}

WriteAheadLog::~WriteAheadLog() {
  if (fd_ >= 0) ::close(fd_);
}

void WriteAheadLog::open_live(std::uint64_t index, std::size_t existing_bytes) {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  live_index_ = index;
  live_path_ = segment_path(index);
  live_bytes_ = existing_bytes;
  fd_ = ::open(live_path_.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC,
               0644);
  if (fd_ < 0) {
    throw SerializeError("cannot open WAL segment for append: " + live_path_);
  }
}

void WriteAheadLog::append(std::string_view agent_id, std::uint64_t sequence,
                           SettleOutcome outcome) {
  common::LockGuard lock(mutex_);
  pending_ += encode_wal_settle(agent_id, sequence, outcome);
  ++pending_records_;
}

void WriteAheadLog::commit() {
  common::LockGuard lock(mutex_);
  commit_locked();
}

void WriteAheadLog::commit_locked() {
  if (pending_.empty()) return;
  const char* p = pending_.data();
  std::size_t left = pending_.size();
  while (left > 0) {
    const ::ssize_t n = ::write(fd_, p, left);
    if (n < 0) {
      if (errno == EINTR) continue;
      // Best-effort rollback to the last durable batch boundary so a
      // retried commit can never append after a partial record.
      static_cast<void>(::ftruncate(fd_, static_cast<off_t>(live_bytes_)));
      throw SerializeError("WAL append failed: " + live_path_);
    }
    p += n;
    left -= static_cast<std::size_t>(n);
  }
  {
    obs::ScopedTimer timer(instruments_->fsync_seconds);
    if (::fsync(fd_) != 0) {
      static_cast<void>(::ftruncate(fd_, static_cast<off_t>(live_bytes_)));
      throw SerializeError("WAL fsync failed: " + live_path_);
    }
  }
  live_bytes_ += pending_.size();
  instruments_->appended.inc(pending_records_);
  instruments_->segment_bytes.set(static_cast<double>(live_bytes_));
  pending_.clear();
  pending_records_ = 0;
}

void WriteAheadLog::compact(const WalState& state) {
  common::LockGuard lock(mutex_);
  commit_locked();  // nothing buffered may be lost by the rotation
  const std::uint64_t next_index = live_index_ + 1;
  const std::string snapshot = encode_wal_snapshot(state);
  // Publish the snapshot segment atomically FIRST. A crash anywhere after
  // this point only leaves superseded segments behind — replay applies them
  // and then the snapshot record resets the state.
  write_file_atomic(segment_path(next_index), snapshot);
  const std::vector<std::uint64_t> indices = list_segment_indices(config_.dir);
  for (const std::uint64_t index : indices) {
    if (index >= next_index) continue;
    std::error_code ec;
    std::filesystem::remove(segment_path(index), ec);
    // A surviving old segment is harmless (see above); ignore ec.
  }
  open_live(next_index, snapshot.size());
  instruments_->compactions.inc();
  instruments_->segment_bytes.set(static_cast<double>(live_bytes_));
  instruments_->segments.set(static_cast<double>(segment_count()));
}

std::size_t WriteAheadLog::segment_count() const {
  return list_segment_indices(config_.dir).size();
}

}  // namespace praxi::service
