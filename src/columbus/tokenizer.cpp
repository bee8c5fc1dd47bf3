#include "columbus/tokenizer.hpp"

#include <algorithm>
#include <cctype>

#include "common/strings.hpp"

namespace praxi::columbus {

std::vector<std::string> default_system_tokens() {
  return {
      // Filesystem Hierarchy Standard directories.
      "bin",   "boot",  "dev",   "etc",    "home",   "lib",    "lib32",
      "lib64", "media", "mnt",   "opt",    "proc",   "root",   "run",
      "sbin",  "srv",   "sys",   "tmp",    "usr",    "var",    "local",
      "share", "cache", "log",   "spool",  "backups", "state",
      // Documentation / man trees.
      "doc",   "docs",  "info",  "man",    "man1",   "man2",   "man3",
      "man4",  "man5",  "man6",  "man7",   "man8",   "examples",
      // Packaging boilerplate.
      "dpkg",  "apt",   "archives", "conf.d", "init.d", "default",
      "logrotate.d", "systemd", "system", "dist-packages", "site-packages",
      "x86_64-linux-gnu", "__pycache__", "tests",
      // Common non-informative names.
      "ubuntu", "debian", "python3", "src", "include", "plugin", "plugins",
      "journal", "entries",
  };
}

namespace {

bool all_digits_or_punct(std::string_view token) {
  for (char c : token) {
    if (std::isalpha(static_cast<unsigned char>(c))) return false;
  }
  return true;
}

/// True when case folding would change any byte — i.e. the segment cannot
/// be viewed in place.
bool needs_fold(std::string_view segment) {
  for (char c : segment) {
    const auto uc = static_cast<unsigned char>(c);
    if (std::tolower(uc) != static_cast<int>(uc)) return true;
  }
  return false;
}

}  // namespace

Tokenizer::Tokenizer() : Tokenizer(default_system_tokens()) {}

Tokenizer::Tokenizer(std::vector<std::string> system_tokens)
    : system_tokens_(std::move(system_tokens)), bucket_begin_(kBuckets + 1) {
  std::sort(system_tokens_.begin(), system_tokens_.end(),
            [](const std::string& a, const std::string& b) {
              const std::size_t ba = bucket_of(a);
              const std::size_t bb = bucket_of(b);
              return ba != bb ? ba < bb : a < b;
            });
  // Counting pass, then prefix sums: bucket b ends where b + 1 begins.
  for (const std::string& token : system_tokens_) {
    ++bucket_begin_[bucket_of(token) + 1];
  }
  for (std::size_t b = 0; b < kBuckets; ++b) {
    bucket_begin_[b + 1] += bucket_begin_[b];
  }
}

std::size_t Tokenizer::bucket_of(std::string_view token) {
  // Low four bits of the length and of the first byte. The 63 default
  // tokens fill 39 buckets, most with one or two entries; the largest is
  // man1..man8.
  const std::size_t first =
      token.empty() ? 0 : static_cast<unsigned char>(token.front());
  return ((token.size() & 0xF) << 4) | (first & 0xF);
}

bool Tokenizer::is_system_token(std::string_view token) const {
  const std::size_t bucket = bucket_of(token);
  for (std::uint32_t i = bucket_begin_[bucket]; i < bucket_begin_[bucket + 1];
       ++i) {
    if (std::string_view(system_tokens_[i]) == token) return true;
  }
  return false;
}

// praxi-lint: allow(columbus-hot-alloc: legacy owned-token surface)
std::vector<std::string> Tokenizer::tokenize(std::string_view path) const {
  std::vector<std::string> tokens;
  // praxi-lint: allow(columbus-hot-alloc: legacy owned-token surface)
  for (auto& segment : split(path, '/')) {
    if (segment.size() < 2) continue;           // single chars carry no signal
    if (all_digits_or_punct(segment)) continue;  // versions, PIDs, hex blobs
    // praxi-lint: allow(columbus-hot-alloc: legacy owned-token surface)
    std::string lowered = to_lower(segment);
    if (is_system_token(lowered)) continue;
    tokens.push_back(std::move(lowered));
  }
  return tokens;
}

void Tokenizer::tokenize_views(std::string_view path, CharArena& arena,
                               std::vector<std::string_view>& out) const {
  // Same split-drop-empties walk as praxi::split, without materializing
  // the field vector.
  std::size_t start = 0;
  while (start <= path.size()) {
    std::size_t end = path.find('/', start);
    if (end == std::string_view::npos) end = path.size();
    if (end > start) {
      const std::string_view token =
          segment_token(path.substr(start, end - start), arena);
      if (!token.empty()) out.push_back(token);
    }
    start = end + 1;
  }
}

std::string_view Tokenizer::segment_token(std::string_view segment,
                                          CharArena& arena) const {
  if (segment.size() < 2 || all_digits_or_punct(segment)) return {};
  const std::string_view lowered =
      needs_fold(segment) ? arena.store_lower(segment) : segment;
  return is_system_token(lowered) ? std::string_view{} : lowered;
}

}  // namespace praxi::columbus
