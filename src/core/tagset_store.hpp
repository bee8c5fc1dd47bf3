// Tagset store: Praxi's only persistent training-data artifact.
//
// DeltaSherlock must retain every raw changeset so dictionaries and
// fingerprints can be regenerated; Praxi only ever stores tagsets, which are
// generated once per changeset and never regenerated (paper §V-C). This
// store models the paper's "flat text file datastore": an append-only
// collection of tagset texts, saved to one file.
//
// Thread-safe: every accessor serializes on an internal mutex (rank
// kTagsetStore — acquired under the server state lock by learn_feedback();
// docs/CONCURRENCY.md), so concurrent add() and save() interleave cleanly.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "columbus/tagset.hpp"
#include "common/annotations.hpp"
#include "common/sync.hpp"

namespace praxi::core {

class TagsetStore {
 public:
  TagsetStore() = default;

  // The Mutex member is neither copyable nor movable, so the value
  // semantics (from_text/from_binary/load return by value) are hand-rolled:
  // snapshot the source under ITS lock, then install under ours — never
  // both locks at once (the rank checker rejects same-rank nesting).
  TagsetStore(const TagsetStore& other);
  TagsetStore(TagsetStore&& other) noexcept;
  TagsetStore& operator=(const TagsetStore& other);
  TagsetStore& operator=(TagsetStore&& other) noexcept;

  void add(columbus::TagSet tagset) PRAXI_EXCLUDES(mutex_);
  void add_all(std::vector<columbus::TagSet> tagsets) PRAXI_EXCLUDES(mutex_);

  /// By value: a reference into the vector could not outlive the lock.
  std::vector<columbus::TagSet> tagsets() const PRAXI_EXCLUDES(mutex_) {
    common::LockGuard lock(mutex_);
    return tagsets_;
  }
  std::size_t size() const PRAXI_EXCLUDES(mutex_) {
    common::LockGuard lock(mutex_);
    return tagsets_.size();
  }
  bool empty() const PRAXI_EXCLUDES(mutex_) {
    common::LockGuard lock(mutex_);
    return tagsets_.empty();
  }

  /// Total serialized footprint — the number the paper's Table III compares
  /// against DeltaSherlock's retained changesets + fingerprints.
  std::size_t total_bytes() const PRAXI_EXCLUDES(mutex_);

  /// Serializes all tagsets into one flat text blob (blank-line separated).
  /// Human-readable but unchecksummed — the on-disk format is to_binary().
  std::string to_text() const PRAXI_EXCLUDES(mutex_);
  static TagsetStore from_text(std::string_view text);

  /// Checksummed binary form (snapshot envelope, docs/PERSISTENCE.md): each
  /// tagset is an embedded TagSet snapshot. from_binary throws
  /// SerializeError on any corruption.
  std::string to_binary() const PRAXI_EXCLUDES(mutex_);
  static TagsetStore from_binary(std::string_view bytes);

  /// Crash-safe file round-trip: save() writes the binary snapshot with
  /// write_file_atomic(), so the store file is never torn; load() verifies
  /// the envelope and throws SerializeError on corruption.
  void save(const std::string& path) const;
  static TagsetStore load(const std::string& path);

 private:
  mutable common::Mutex mutex_{"tagset_store",
                               common::LockRank::kTagsetStore};
  std::vector<columbus::TagSet> tagsets_ PRAXI_GUARDED_BY(mutex_);
};

}  // namespace praxi::core
