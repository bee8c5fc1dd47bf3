#include "service/transport.hpp"

#include "common/serialize.hpp"

namespace praxi::service {

std::string ChangesetReport::to_wire() const {
  BinaryWriter w;
  w.put_string(agent_id);
  w.put<std::uint64_t>(sequence);
  changeset.write_fields(w);
  return seal_snapshot(kChangesetReportMagic, kChangesetReportVersion,
                       w.bytes());
}

std::string ChangesetReport::to_wire_v1() const {
  BinaryWriter w;
  w.put_string(agent_id);
  w.put<std::uint64_t>(sequence);
  w.put_string(changeset.to_binary());
  return seal_snapshot(kChangesetReportMagic, 1, w.bytes());
}

ReportView ChangesetReport::view_wire(std::string_view bytes) {
  const Snapshot snap =
      open_snapshot(bytes, kChangesetReportMagic, kChangesetReportMinVersion,
                    kChangesetReportVersion);
  BinaryReader r(snap.payload);
  ReportView view;
  view.agent_id = r.get_string_view();
  view.sequence = r.get<std::uint64_t>();
  // v1 nests a whole "PCS1" snapshot; v2 inlines its fields. Either way the
  // same field parser runs.
  view.changeset = snap.version == 1
                       ? fs::Changeset::view_binary(r.get_string_view())
                       : fs::Changeset::read_fields(r);
  r.require_end("changeset report");
  return view;
}

ChangesetReport ChangesetReport::from_wire(std::string_view bytes) {
  const ReportView view = view_wire(bytes);
  ChangesetReport report;
  report.agent_id = view.agent_id;
  report.sequence = view.sequence;
  report.changeset = fs::Changeset::from_view(view.changeset);
  return report;
}

std::optional<ReportIdentity> ChangesetReport::peek_identity(
    std::string_view bytes) noexcept {
  try {
    BinaryReader r(bytes);
    if (r.get<std::uint32_t>() != kChangesetReportMagic) return std::nullopt;
    r.get<std::uint32_t>();  // version: any, this is best-effort forensics
    r.get<std::uint64_t>();  // payload length: deliberately not trusted
    r.get<std::uint32_t>();  // checksum: deliberately not verified
    ReportIdentity identity;
    identity.agent_id = r.get_string();
    identity.sequence = r.get<std::uint64_t>();
    // A corrupt length byte could splice arbitrary bytes into the "id";
    // an implausibly long one is noise, not an agent.
    if (identity.agent_id.empty() || identity.agent_id.size() > 256)
      return std::nullopt;
    return identity;
    // The real decode path (DiscoveryServer::process) records the frame.
    // praxi-lint: allow(data-plane-catch: noexcept best-effort forensics)
  } catch (const SerializeError&) {
    return std::nullopt;
  }
}

void MessageBus::send(std::string wire_bytes) {
  total_bytes_ += wire_bytes.size();
  ++total_;
  queue_.push_back(std::move(wire_bytes));
}

std::vector<std::string> MessageBus::drain() {
  std::vector<std::string> out(queue_.begin(), queue_.end());
  queue_.clear();
  delivered_ += out.size();
  for (const auto& frame : out) delivered_bytes_ += frame.size();
  return out;
}

void MessageBus::ack(std::string_view wire_bytes) {
  ++ack_calls_;
  if (auto identity = ChangesetReport::peek_identity(wire_bytes)) {
    acked_.emplace(std::move(identity->agent_id), identity->sequence);
  }
}

bool MessageBus::acknowledged(std::string_view agent_id,
                              std::uint64_t sequence) const {
  return acked_.count({std::string(agent_id), sequence}) > 0;
}

TransportStats MessageBus::stats() const {
  TransportStats s;
  s.sent_frames = total_;
  s.sent_bytes = total_bytes_;
  s.delivered_frames = delivered_;
  s.delivered_bytes = delivered_bytes_;
  s.acked_frames = ack_calls_;
  s.pending_frames = queue_.size();
  return s;
}

}  // namespace praxi::service
