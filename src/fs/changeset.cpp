#include "fs/changeset.hpp"

#include <algorithm>
#include <cstdio>
#include <stdexcept>

#include "common/serialize.hpp"
#include "common/strings.hpp"

namespace praxi::fs {

std::string_view change_kind_tag(ChangeKind kind) {
  switch (kind) {
    case ChangeKind::kCreate: return "C";
    case ChangeKind::kModify: return "M";
    case ChangeKind::kDelete: return "D";
  }
  return "?";
}

namespace {

ChangeKind kind_from_tag(std::string_view tag) {
  if (tag == "C") return ChangeKind::kCreate;
  if (tag == "M") return ChangeKind::kModify;
  if (tag == "D") return ChangeKind::kDelete;
  throw std::invalid_argument("bad change kind tag: " + std::string(tag));
}

}  // namespace

void Changeset::add(ChangeRecord record) {
  if (closed_) throw std::logic_error("add() on closed changeset");
  records_.push_back(std::move(record));
}

void Changeset::close(std::int64_t close_time_ms) {
  if (closed_) throw std::logic_error("close() on closed changeset");
  std::sort(records_.begin(), records_.end(),
            [](const ChangeRecord& a, const ChangeRecord& b) {
              if (a.time_ms != b.time_ms) return a.time_ms < b.time_ms;
              if (a.path != b.path) return a.path < b.path;
              return a.kind < b.kind;
            });
  records_.erase(std::unique(records_.begin(), records_.end()),
                 records_.end());
  close_time_ms_ = close_time_ms;
  closed_ = true;
}

std::size_t Changeset::size_bytes() const {
  // Header + per-record line lengths, mirroring to_text() without building
  // the string. Each line: kind(1) + ' ' + mode(4) + ' ' + time(~13) + ' ' +
  // path + '\n'.
  std::size_t total = 64;  // header estimate
  for (const auto& label : labels_) total += label.size() + 1;
  for (const auto& rec : records_) total += rec.path.size() + 21;
  return total;
}

std::string Changeset::to_text() const {
  std::string out;
  out.reserve(size_bytes());
  char buf[96];
  std::snprintf(buf, sizeof buf, "#changeset open=%lld close=%lld labels=",
                static_cast<long long>(open_time_ms_),
                static_cast<long long>(close_time_ms_));
  out += buf;
  out += join(labels_, ",");
  out += '\n';
  for (const auto& rec : records_) {
    std::snprintf(buf, sizeof buf, "%s %04o %lld ",
                  std::string(change_kind_tag(rec.kind)).c_str(), rec.mode,
                  static_cast<long long>(rec.time_ms));
    out += buf;
    out += rec.path;
    out += '\n';
  }
  return out;
}

Changeset Changeset::from_text(std::string_view text) {
  Changeset cs;
  std::int64_t close_time = 0;
  bool saw_header = false;
  for (const auto& line : split(text, '\n')) {
    if (line.empty()) continue;
    if (line[0] == '#') {
      // "#changeset open=<o> close=<c> labels=a,b"
      for (const auto& field : split(line.substr(1), ' ')) {
        const auto eq = field.find('=');
        if (eq == std::string::npos) continue;
        const std::string key = field.substr(0, eq);
        const std::string value = field.substr(eq + 1);
        if (key == "open") cs.open_time_ms_ = std::stoll(value);
        else if (key == "close") close_time = std::stoll(value);
        else if (key == "labels" && !value.empty())
          cs.labels_ = split(value, ',');
      }
      saw_header = true;
      continue;
    }
    const auto fields = split(line, ' ');
    if (fields.size() != 4) throw std::invalid_argument("bad record line: " + line);
    ChangeRecord rec;
    rec.kind = kind_from_tag(fields[0]);
    rec.mode = static_cast<std::uint16_t>(std::stoul(fields[1], nullptr, 8));
    rec.time_ms = std::stoll(fields[2]);
    rec.path = fields[3];
    cs.records_.push_back(std::move(rec));
  }
  if (!saw_header) throw std::invalid_argument("missing changeset header");
  cs.close(close_time);
  return cs;
}

namespace {

// Snapshot identity (see docs/PERSISTENCE.md).
constexpr std::uint32_t kChangesetMagic = 0x50435331U;  // "PCS1"
constexpr std::uint32_t kChangesetVersion = 1;

/// Serialized footprint floor of one record: kind + mode + time + path
/// length prefix. Bounds hostile record counts against remaining bytes.
constexpr std::size_t kMinRecordBytes = 1 + 2 + 8 + 4;

}  // namespace

void Changeset::write_fields(BinaryWriter& w) const {
  w.put<std::int64_t>(open_time_ms_);
  w.put<std::int64_t>(close_time_ms_);
  w.put<std::uint8_t>(closed_ ? 1 : 0);
  w.put<std::uint32_t>(static_cast<std::uint32_t>(labels_.size()));
  for (const auto& label : labels_) w.put_string(label);
  w.put<std::uint64_t>(records_.size());
  for (const auto& rec : records_) {
    w.put<std::uint8_t>(static_cast<std::uint8_t>(rec.kind));
    w.put<std::uint16_t>(rec.mode);
    w.put<std::int64_t>(rec.time_ms);
    w.put_string(rec.path);
  }
}

ChangesetView Changeset::read_fields(BinaryReader& r) {
  ChangesetView view;
  view.open_time_ms = r.get<std::int64_t>();
  view.close_time_ms = r.get<std::int64_t>();
  view.closed = r.get<std::uint8_t>() != 0;
  const auto nlabels = r.get<std::uint32_t>();
  if (nlabels > r.remaining() / sizeof(std::uint32_t)) {
    throw SerializeError("changeset label count out of range", r.position());
  }
  view.labels.reserve(nlabels);
  for (std::uint32_t i = 0; i < nlabels; ++i)
    view.labels.push_back(r.get_string_view());
  const auto nrecords = r.get<std::uint64_t>();
  if (nrecords > r.remaining() / kMinRecordBytes) {
    throw SerializeError("changeset record count out of range", r.position());
  }
  view.records.reserve(nrecords);
  for (std::uint64_t i = 0; i < nrecords; ++i) {
    ChangeRecordView rec;
    const auto kind = r.get<std::uint8_t>();
    if (kind > static_cast<std::uint8_t>(ChangeKind::kDelete)) {
      throw SerializeError("changeset record has bad change kind " +
                               std::to_string(kind),
                           r.position());
    }
    rec.kind = static_cast<ChangeKind>(kind);
    rec.mode = r.get<std::uint16_t>();
    rec.time_ms = r.get<std::int64_t>();
    rec.path = r.get_string_view();
    view.records.push_back(rec);
  }
  return view;
}

Changeset Changeset::from_view(const ChangesetView& view) {
  Changeset cs;
  cs.open_time_ms_ = view.open_time_ms;
  cs.close_time_ms_ = view.close_time_ms;
  cs.closed_ = view.closed;
  cs.labels_.assign(view.labels.begin(), view.labels.end());
  cs.records_.reserve(view.records.size());
  for (const ChangeRecordView& rec : view.records) {
    cs.records_.push_back(
        ChangeRecord{std::string(rec.path), rec.mode, rec.kind, rec.time_ms});
  }
  return cs;
}

std::string Changeset::to_binary() const {
  BinaryWriter w;
  write_fields(w);
  return seal_snapshot(kChangesetMagic, kChangesetVersion, w.bytes());
}

ChangesetView Changeset::view_binary(std::string_view bytes) {
  const Snapshot snap =
      open_snapshot(bytes, kChangesetMagic, kChangesetVersion,
                    kChangesetVersion);
  BinaryReader r(snap.payload);
  ChangesetView view = read_fields(r);
  r.require_end("changeset");
  return view;
}

Changeset Changeset::from_binary(std::string_view bytes) {
  return from_view(view_binary(bytes));
}

Changeset synthesize_multi(std::span<const Changeset* const> parts) {
  Changeset out;
  std::int64_t open_time = 0;
  std::int64_t close_time = 0;
  bool first = true;
  for (const Changeset* part : parts) {
    for (const auto& rec : part->records()) out.add(rec);
    for (const auto& label : part->labels()) out.add_label(label);
    if (first || part->open_time_ms() < open_time)
      open_time = part->open_time_ms();
    if (first || part->close_time_ms() > close_time)
      close_time = part->close_time_ms();
    first = false;
  }
  out.set_open_time(open_time);
  out.close(close_time);
  return out;
}

std::pair<Changeset, Changeset> split_at(const Changeset& changeset,
                                         std::int64_t time_ms) {
  Changeset before, after;
  before.set_open_time(changeset.open_time_ms());
  after.set_open_time(time_ms);
  for (const auto& rec : changeset.records()) {
    (rec.time_ms < time_ms ? before : after).add(rec);
  }
  for (const auto& label : changeset.labels()) {
    before.add_label(label);
    after.add_label(label);
  }
  before.close(time_ms);
  after.close(changeset.close_time_ms());
  return {std::move(before), std::move(after)};
}

Changeset merge_adjacent(const Changeset& first, const Changeset& second) {
  Changeset merged;
  merged.set_open_time(std::min(first.open_time_ms(), second.open_time_ms()));
  for (const auto& rec : first.records()) merged.add(rec);
  for (const auto& rec : second.records()) merged.add(rec);
  std::vector<std::string> labels = first.labels();
  for (const auto& label : second.labels()) {
    if (std::find(labels.begin(), labels.end(), label) == labels.end()) {
      labels.push_back(label);
    }
  }
  for (auto& label : labels) merged.add_label(std::move(label));
  merged.close(std::max(first.close_time_ms(), second.close_time_ms()));
  return merged;
}

}  // namespace praxi::fs
