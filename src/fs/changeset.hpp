// Changesets — the unit every discovery method in the paper consumes.
//
// A changeset is the collection of filesystem changes observed within a
// closed time interval (paper §III-A). Each record stores the file's absolute
// path, UNIX permission octal, the kind of change (creation, modification,
// deletion), and the timestamp at which it occurred. Closing a changeset
// sorts records by time, removes duplicates, and stamps close_time.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <string>
#include <string_view>
#include <vector>

namespace praxi {
class BinaryReader;
class BinaryWriter;
}  // namespace praxi

namespace praxi::fs {

enum class ChangeKind : std::uint8_t {
  kCreate = 0,
  kModify = 1,
  kDelete = 2,
};

/// Short human tag for a change kind ("C", "M", "D").
std::string_view change_kind_tag(ChangeKind kind);

struct ChangeRecord {
  std::string path;        ///< Absolute, normalized path.
  std::uint16_t mode = 0;  ///< UNIX permission bits (e.g. 0755).
  ChangeKind kind = ChangeKind::kCreate;
  std::int64_t time_ms = 0;

  bool executable() const { return (mode & 0111) != 0; }

  friend bool operator==(const ChangeRecord&, const ChangeRecord&) = default;
};

/// A ChangeRecord decoded in place: `path` views the buffer it was decoded
/// from, so it is valid only while that buffer lives. Same field names as
/// ChangeRecord, so code templated on the record type serves both.
struct ChangeRecordView {
  std::string_view path;
  std::uint16_t mode = 0;
  ChangeKind kind = ChangeKind::kCreate;
  std::int64_t time_ms = 0;

  bool executable() const { return (mode & 0111) != 0; }
};

/// The fields of a serialized changeset, decoded and bounds-checked but not
/// copied: labels and record paths view the decoded buffer. Ingest screens
/// and extracts from this directly; Changeset::from_view copies it.
struct ChangesetView {
  std::int64_t open_time_ms = 0;
  std::int64_t close_time_ms = 0;
  bool closed = false;
  std::vector<std::string_view> labels;
  std::vector<ChangeRecordView> records;

  std::size_t size() const { return records.size(); }
  bool empty() const { return records.empty(); }
};

class Changeset {
 public:
  Changeset() = default;

  /// Appends a record; allowed only while the changeset is open.
  void add(ChangeRecord record);

  /// Sorts by timestamp (path as tie-break), removes exact duplicates, and
  /// stamps close_time. After close() the changeset is immutable.
  void close(std::int64_t close_time_ms);

  bool closed() const { return closed_; }

  void set_open_time(std::int64_t t) { open_time_ms_ = t; }
  std::int64_t open_time_ms() const { return open_time_ms_; }
  std::int64_t close_time_ms() const { return close_time_ms_; }

  /// Ground-truth labels (application names installed during the interval).
  void add_label(std::string label) { labels_.push_back(std::move(label)); }
  const std::vector<std::string>& labels() const { return labels_; }

  const std::vector<ChangeRecord>& records() const { return records_; }
  std::size_t size() const { return records_.size(); }
  bool empty() const { return records_.empty(); }

  /// Approximate on-disk footprint: the size of the text serialization.
  /// Used for the storage-overhead comparisons (Table III).
  std::size_t size_bytes() const;

  /// One record per line: "<kind> <octal-mode> <time_ms> <path>", preceded by
  /// a header carrying interval bounds and labels. Round-trips via from_text.
  std::string to_text() const;
  static Changeset from_text(std::string_view text);

  /// Compact binary round-trip: the changeset fields (write_fields) in a
  /// "PCS1" snapshot envelope.
  std::string to_binary() const;
  static Changeset from_binary(std::string_view bytes);

  /// The changeset fields without an envelope — the "PCS1" payload, also
  /// carried inline by the "PRPT" v2 wire report (docs/PERSISTENCE.md).
  void write_fields(BinaryWriter& w) const;
  /// The one parser of those fields: validates every count, kind and
  /// length against the bytes left in `r` and returns views into them.
  static ChangesetView read_fields(BinaryReader& r);
  /// from_binary without the copy: opens the "PCS1" envelope and returns
  /// read_fields over its payload, views into `bytes`.
  static ChangesetView view_binary(std::string_view bytes);
  /// Copies a decoded view into an owning Changeset, fields as decoded
  /// (records keep their wire order; closed() is the decoded flag).
  static Changeset from_view(const ChangesetView& view);

  friend bool operator==(const Changeset&, const Changeset&) = default;

 private:
  std::vector<ChangeRecord> records_;
  std::vector<std::string> labels_;
  std::int64_t open_time_ms_ = 0;
  std::int64_t close_time_ms_ = 0;
  bool closed_ = false;
};

/// Builds a multi-application changeset by concatenating single-application
/// changesets (paper §IV-B(c): "synthesized" multi-label changesets). Labels
/// are merged; records keep their original timestamps; the result is closed.
Changeset synthesize_multi(std::span<const Changeset* const> parts);

/// Splits a closed changeset at `time_ms` into two *partial* changesets
/// (records strictly before the cut vs the rest). Models a sampling boundary
/// landing mid-installation (paper §VI); labels are carried on both halves.
std::pair<Changeset, Changeset> split_at(const Changeset& changeset,
                                         std::int64_t time_ms);

/// Re-joins two adjacent partial changesets — the §VI remedy when a change
/// burst straddles a boundary. Labels are united without duplicates.
Changeset merge_adjacent(const Changeset& first, const Changeset& second);

}  // namespace praxi::fs
