// Fuzz harness: wire ChangesetReport ("PRPT", v1 and v2) decoder, plus the
// best-effort peek_agent_id() used for malformed-frame attribution — peek
// is noexcept, so it must digest the same arbitrary bytes without throwing
// at all.
//
// Each input is decoded twice: as given, and with its payload re-sealed
// under its own header version. Most mutations of the raw bytes die at the
// CRC check; the re-sealed copy carries them past it into the record
// parser's bounds checks and, when it still parses, through the server's
// screen and extractor.
#include <cstring>

#include "fuzz_entry.hpp"

#include "columbus/columbus.hpp"
#include "common/serialize.hpp"
#include "core/discovery_service.hpp"
#include "service/transport.hpp"

namespace {

void ingest(std::string_view bytes) {
  try {
    const auto view = praxi::service::ChangesetReport::view_wire(bytes);
    (void)praxi::core::DiscoveryService::infer_quantity(view.changeset, {});
    static const praxi::columbus::Columbus columbus;
    (void)columbus.extract(view.changeset,
                           praxi::columbus::tls_extraction_scratch());
    praxi::service::ChangesetReport::from_wire(bytes);
  } catch (const praxi::SerializeError&) {
    // Expected for arbitrary bytes; anything else escapes and is a finding.
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  const auto bytes = praxi::fuzz::as_view(data, size);
  (void)praxi::service::ChangesetReport::peek_agent_id(bytes);
  ingest(bytes);
  if (bytes.size() >= praxi::kSnapshotHeaderBytes) {
    std::uint32_t version = 0;
    std::memcpy(&version, bytes.data() + sizeof(std::uint32_t),
                sizeof version);
    ingest(praxi::seal_snapshot(praxi::service::kChangesetReportMagic, version,
                                bytes.substr(praxi::kSnapshotHeaderBytes)));
  }
  return 0;
}
