// Path tokenization for Columbus (paper §II-B).
//
// Each filepath is tokenized into its directory and file-name segments
// ("/etc/mysql/conf.d" -> ["etc", "mysql", "conf.d"]); common system tokens
// (etc, usr, ...) are removed; the surviving tokens feed the frequency trie.
//
// Two surfaces share the filter rules:
//   * tokenize()       — legacy, one owned std::string per token. Retained
//                        for the reference extraction path and callers that
//                        need owned tokens.
//   * tokenize_views() — the hot path: string_view spans over the caller's
//                        path buffer (or over a CharArena when a segment
//                        needed case folding), no per-segment allocation.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "columbus/char_arena.hpp"

namespace praxi::columbus {

/// The default system-token filter: standard FHS directory names, man
/// sections, packaging boilerplate names, ...
std::vector<std::string> default_system_tokens();

class Tokenizer {
 public:
  /// Constructs with default_system_tokens().
  Tokenizer();

  /// Constructs with a caller-provided filter list.
  explicit Tokenizer(std::vector<std::string> system_tokens);

  /// Splits a path into segments and drops system tokens, pure numbers, and
  /// single-character segments. Legacy allocating form; token-for-token
  /// identical to tokenize_views().
  // praxi-lint: allow(columbus-hot-alloc: legacy owned-token surface)
  std::vector<std::string> tokenize(std::string_view path) const;

  /// Zero-copy form: appends the surviving lower-cased segments to `out` as
  /// views. A segment that is already lower-case is viewed in place inside
  /// `path`; otherwise its folded copy lives in `arena`. Views are valid
  /// until the arena is cleared or the path buffer dies. `out` is NOT
  /// cleared (callers batch several paths into one buffer).
  void tokenize_views(std::string_view path, CharArena& arena,
                      std::vector<std::string_view>& out) const;

  /// The token one slash-free segment contributes: its lower-cased view
  /// (folded into `arena` only when needed), or an empty view when the
  /// filter rules drop it. tokenize_views() is this applied per segment.
  std::string_view segment_token(std::string_view segment,
                                 CharArena& arena) const;

  /// Membership test against the filter list: one bucket keyed by the
  /// probe's length and first byte, then an exact compare against the few
  /// entries that share it. No owned-string construction per lookup.
  bool is_system_token(std::string_view token) const;

 private:
  static constexpr std::size_t kBuckets = 256;
  static std::size_t bucket_of(std::string_view token);

  std::vector<std::string> system_tokens_;  // ordered by (bucket, text)
  /// Entries of bucket b are system_tokens_[bucket_begin_[b],
  /// bucket_begin_[b + 1]). Indices, not views, so copies stay valid.
  std::vector<std::uint32_t> bucket_begin_;
};

}  // namespace praxi::columbus
