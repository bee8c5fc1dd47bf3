// Shared runtime knobs embedded by every engine-owning configuration
// (core::PraxiConfig, service::ServerConfig), so thread counts and the
// snapshot cadence cannot drift between layers.
//
// Precedence rule (the one documented contract, docs/API.md): the OUTERMOST
// configured component wins. A RuntimeConfig is applied when its owner is
// constructed or reconfigured (Praxi::Praxi / Praxi::set_runtime /
// DiscoveryServer::DiscoveryServer), and the last application is the one in
// effect — so a DiscoveryServer's ServerConfig::runtime overrides whatever
// the wrapped model was built with, and a praxi-cli --threads or
// --snapshot-every flag overrides both. The metrics gate is not a runtime
// knob: hosts call obs::MetricsRegistry::set_enabled themselves.
//
// Thread-compatibility contract (docs/CONCURRENCY.md): this is a plain
// value type with no lock of its own — it carries no mutable shared state.
// Apply it at configuration time, from one thread, before the configured
// component is shared; the ThreadPool it configures is itself internally
// synchronized on the annotated primitives in common/sync.hpp.
#pragma once

#include <cstddef>

namespace praxi::common {

struct RuntimeConfig {
  /// Worker threads for the batch APIs: 0 = one per hardware thread,
  /// 1 = the sequential path (no pool is created). Batch results are
  /// identical for every value — threading only changes wall-clock time.
  std::size_t num_threads = 1;

  /// How often online learning publishes a fresh prediction snapshot
  /// (core/model_snapshot.hpp): a new epoch is published after every N
  /// learn_one() calls. 1 (the default) publishes after every update, so
  /// predictions through Praxi::snapshot() always see the latest weights —
  /// bit-identical to the pre-snapshot behavior. Larger values amortize the
  /// copy-on-write freeze across N updates (readers serve a model at most
  /// N-1 updates stale); 0 publishes only at train()/reset()/restore
  /// boundaries and on explicit Praxi::publish() calls. train() and
  /// reset() always publish regardless of this value. Precedence follows
  /// the rule above: defaults < host < CLI (--snapshot-every).
  std::size_t snapshot_publish_every = 1;
};

}  // namespace praxi::common
