#!/usr/bin/env python3
"""Project-invariant linter for the praxi tree (docs/STATIC_ANALYSIS.md).

Enforces the persistence-hardening invariants that PR 2 bought and that
generic compilers cannot check:

  raw-write        Snapshot writes must go through write_file_atomic() /
                   seal_snapshot(); a bare praxi::write_file() call in src/
                   is a torn-file hazard. Escape hatch for genuinely
                   non-snapshot output: `// praxi-lint: allow(raw-write...)`
                   on the same or previous line.
  missing-require-end
                   Every snapshot decoder (a `Class::from_binary` /
                   `Class::from_wire` definition) must drain its payload
                   with require_end(), directly or via a helper defined in
                   the same file — trailing bytes mean the envelope lied.
  undocumented-magic
                   Every envelope magic (`constexpr ... kFooMagic = 0x...;
                   // "XXXX"`) must have its four-char tag documented in
                   docs/PERSISTENCE.md.
  iostream-in-library
                   Library code takes std::ostream&; `#include <iostream>`
                   pulls in global streams + static init order hazards.
  naked-rand       rand()/srand() are unseeded, global, and irreproducible;
                   library code must use praxi::Rng.
  catch-by-value   Catching exception types by value slices subclasses
                   (VersionError -> SerializeError) and copies; catch by
                   (const) reference.

Plus the observability invariants from the instrumented-API PR
(docs/OBSERVABILITY.md, docs/API.md):

  metric-naming    Instrument registrations must follow the catalog naming
                   scheme: `praxi_<component>_<name>[_unit]`, lowercase
                   [a-z0-9_]; counters end in `_total`, histograms in
                   `_seconds` / `_bytes` / `_count`, gauges carry no
                   counter suffix. A registration that drifts from the
                   scheme silently forks the metric namespace.
  data-plane-catch The error-surface contract (docs/API.md): data-plane
                   code may swallow an exception only if it records it
                   (increments an instrument) or reports it; otherwise it
                   must rethrow or preserve it. A catch block that does
                   none of these hides failures from operators. Escape
                   hatch: `// praxi-lint: allow(data-plane-catch: why)`.

And the transport invariant from the socket-transport PR (docs/SERVICE.md):

  blocking-socket  Raw socket syscalls (::socket, ::connect, ::send, ...)
                   are allowed only under src/net/, whose TcpStream /
                   TcpListener wrappers bound every operation with a
                   timeout. A syscall elsewhere can block a data-plane
                   thread forever on a dead peer. Escape hatch:
                   `// praxi-lint: allow(blocking-socket: why)`.

And the hot-path invariant from the arena-extraction PR
(docs/ALGORITHMS.md):

  columbus-hot-alloc
                   src/columbus/ hot-path files must not reintroduce
                   per-token heap allocation: no std::map<char,...> child
                   tables, no make_unique node allocation, and no calls to
                   the allocating split()/to_lower()/tokenize() helpers —
                   the arena pipeline (tokenize_views + SegmentInterner +
                   ArenaTrie) is the steady-state-zero-allocation
                   replacement for all of them. The legacy FrequencyTrie
                   translation unit is exempt (it IS the documented
                   allocating baseline). Escape hatch:
                   `// praxi-lint: allow(columbus-hot-alloc: why)`.

And the concurrency invariant from the thread-safety-annotations PR
(docs/CONCURRENCY.md):

  naked-mutex      std::mutex / std::lock_guard / std::unique_lock /
                   std::condition_variable and friends are banned in src/
                   outside common/sync.hpp: an unannotated lock is
                   invisible to clang Thread Safety Analysis AND skips the
                   lock-rank deadlock checker. Use common::Mutex /
                   common::LockGuard / common::CondVar. So are the locks
                   the standard library hides inside an atomic shared_ptr:
                   std::atomic<std::shared_ptr<...>> (or of a `FooPtr`
                   alias, the project's name for a shared_ptr) and the
                   std::atomic_load / atomic_store / atomic_exchange free
                   functions, which neither those checkers nor gcc's
                   ThreadSanitizer see (guard the pointer with a
                   common::Mutex, as core::SnapshotCell does). Escape hatch
                   (used by the wrapper itself):
                   `// praxi-lint: allow(naked-mutex: why)`.

  naked-thread     std::thread / std::jthread objects are banned in src/:
                   work that crosses threads goes through a ThreadPool
                   (common/thread_pool.hpp), whose futures carry a task's
                   exception back to its caller. Only the pool's
                   own workers and the socket server's blocking IO threads
                   hold one, each annotated
                   `// praxi-lint: allow(naked-thread: why)`. Static
                   members such as std::thread::hardware_concurrency() do
                   not trip the rule.

And the serve-while-learn invariant from the snapshot-API PR
(docs/API.md, docs/CONCURRENCY.md):

  weight-table-mutation
                   ml::detail::WeightTable belongs to ml::OnlineLearner
                   alone (src/ml/online_learner.*): predict paths read
                   immutable ModelSnapshots, which hold a `const` copy of
                   the learner, so a WeightTable reference (or an
                   .update()/.set_raw() call on a table) anywhere else in
                   src/ would reopen the torn-read window the RCU snapshot
                   design closed. Escape hatch:
                   `// praxi-lint: allow(weight-table-mutation: why)`.

And the routing invariant from the sharded-cluster PR (docs/CLUSTER.md):

  ad-hoc-sharding  agent_id -> shard mapping must go through the
                   consistent-hash ring (cluster::HashRing): a `% shards`
                   style modulo mapping reshuffles nearly every key when
                   the shard count changes, orphaning per-agent dedup and
                   WAL state. Modulo-over-a-shard-count is banned in src/
                   outside src/cluster/ (the ring's own implementation).
                   Escape hatch: `// praxi-lint: allow(ad-hoc-sharding: why)`.

Usage:
  praxi_lint.py [--root REPO_ROOT]   lint <root>/src, report, exit 1 on hits
  praxi_lint.py --self-test          seed one violation per rule into a temp
                                     tree and assert each rule fires (and
                                     that a clean tree stays clean)
"""

from __future__ import annotations

import argparse
import pathlib
import re
import sys
import tempfile

SOURCE_SUFFIXES = {".cpp", ".hpp", ".h"}

# Files allowed to mention bare write_file: its definition, and the
# in-memory filesystem whose member of the same name is simulation, not
# persistence.
RAW_WRITE_EXEMPT = {"src/common/serialize.cpp", "src/common/serialize.hpp",
                    "src/fs/filesystem.cpp", "src/fs/filesystem.hpp"}

ALLOW_RE = re.compile(r"praxi-lint:\s*allow\((?P<rule>[\w-]+)")
RAW_WRITE_RE = re.compile(r"(?<![.\w:>])write_file\s*\(")
MAGIC_RE = re.compile(
    r"constexpr\s+std::uint32_t\s+k\w*Magic\s*=\s*0x[0-9a-fA-F]+U?\s*;"
    r'\s*//\s*"(?P<tag>....)"')
MAGIC_NO_TAG_RE = re.compile(
    r"constexpr\s+std::uint32_t\s+k\w*Magic\s*=\s*0x[0-9a-fA-F]+U?\s*;")
IOSTREAM_RE = re.compile(r"#\s*include\s*<iostream>")
RAND_RE = re.compile(r"(?<![\w:.])s?rand\s*\(")
CATCH_RE = re.compile(
    r"catch\s*\(\s*(?:const\s+)?(?P<type>[\w:]*(?:Error|Exception|exception))"
    r"\s+(?!\s*&)(?P<name>\w+)?\s*\)")
DECODER_RE = re.compile(r"\b\w+::(?:from_binary|from_wire)\s*\(")

# Instrument registrations: `<registry>.counter("name", ...)` etc. The call
# frequently breaks the line after the open paren, so this runs over the
# whole (comment-stripped) file, not line by line.
METRIC_REG_RE = re.compile(
    r"\.\s*(?P<kind>counter|gauge|histogram)\s*\(\s*\"(?P<name>[^\"]*)\"")
METRIC_NAME_RE = re.compile(r"^praxi_[a-z0-9_]+$")
HISTOGRAM_SUFFIXES = ("_seconds", "_bytes", "_count")
CATCH_BLOCK_RE = re.compile(r"\bcatch\s*\(")
# What makes a catch handler acceptable: rethrowing, preserving the
# exception for later, recording to a metrics instrument, or reporting to
# a stream. Heuristic, like the rest of this linter.
CATCH_HANDLES_RE = re.compile(r"\bthrow\b|current_exception|\binc\s*\(|<<")

# Raw socket syscalls, allowed only under src/net/ (docs/SERVICE.md). The
# qualified form (`::send(...)`) is how the sanctioned wrappers call them;
# the lookbehind keeps `SocketClient::send(` (a method definition) out. The
# bare form lists only names that collide with nothing in this codebase.
BLOCKING_SOCKET_EXEMPT_PREFIX = "src/net/"
SOCKET_QUALIFIED_RE = re.compile(
    r"(?<![\w>])::(?:socket|bind|listen|accept4?|connect|recv|send|"
    r"recvfrom|sendto|shutdown|setsockopt|getsockopt|getsockname|poll)\s*\(")
SOCKET_BARE_RE = re.compile(
    r"(?<![\w:.])(?:accept4|recvfrom|sendto|setsockopt|getsockopt|"
    r"getsockname)\s*\(")

# Columbus hot-path allocation primitives (docs/ALGORITHMS.md). The legacy
# trie's own translation unit is the allocating baseline and stays exempt;
# everything else under src/columbus/ must use the arena pipeline. Note
# `tokenize(` deliberately does NOT match `tokenize_views(`.
COLUMBUS_HOT_PREFIX = "src/columbus/"
COLUMBUS_HOT_EXEMPT = {"src/columbus/frequency_trie.cpp",
                       "src/columbus/frequency_trie.hpp"}
COLUMBUS_ALLOC_RE = re.compile(
    r"std::map\s*<\s*char|make_unique\s*<|(?<![\w_])to_lower\s*\(|"
    r"(?<![\w_])tokenize\s*\(|(?<![\w_:.])split\s*\(")

# The only translation units allowed to touch ml::detail::WeightTable: the
# one learner that owns it (docs/API.md). Snapshots hold a `const` copy of
# that learner, and everyone else predicts through them.
WEIGHT_TABLE_EXEMPT = {"src/ml/online_learner.hpp", "src/ml/online_learner.cpp"}
WEIGHT_TABLE_RE = re.compile(r"\bWeightTable\b")
WEIGHT_TABLE_MUTATE_RE = re.compile(
    r"\w*[tT]able\w*\s*\.\s*(?:update|set_raw)\s*\(")

# Ad-hoc shard mapping (docs/CLUSTER.md): any modulo over a shard count
# (`hash % shards`, `id % num_shards_`, `% ring.shard_count()`) outside the
# ring's own implementation. Consistent hashing is the one sanctioned
# agent_id -> shard mapping; modulo reshuffles ~all keys on membership
# change, orphaning per-agent dedup/WAL state.
ADHOC_SHARDING_EXEMPT_PREFIX = "src/cluster/"
ADHOC_SHARDING_RE = re.compile(r"%\s*[\w.>()\[\]-]*shard", re.IGNORECASE)

# Raw standard-library synchronization primitives (docs/CONCURRENCY.md).
# Only the common/sync.hpp wrappers may touch them (via the allow()
# escape); everything else in src/ uses the annotated, rank-carrying
# common::Mutex/LockGuard/CondVar so both proof systems see every lock.
# An atomic shared_ptr counts too: the standard library guards it with a
# lock of its own that no checker sees.
NAKED_MUTEX_RE = re.compile(
    r"\bstd::(?:recursive_|timed_|recursive_timed_|shared_)?mutex\b|"
    r"\bstd::(?:lock_guard|unique_lock|scoped_lock|shared_lock)\b|"
    r"\bstd::condition_variable(?:_any)?\b|"
    r"\bstd::atomic\s*<\s*(?:(?:std::)?shared_ptr\b|(?:\w+::)*\w*Ptr\s*>)|"
    r"\bstd::atomic_(?:load|store|exchange)(?:_explicit)?\b")

# Raw thread objects (docs/CONCURRENCY.md). `std::thread::` (a static
# member such as hardware_concurrency()) names no thread and stays legal.
NAKED_THREAD_RE = re.compile(r"\bstd::j?thread\b(?!\s*::)")


class Violation:
    def __init__(self, path: str, line: int, rule: str, message: str):
        self.path, self.line, self.rule, self.message = path, line, rule, message

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def line_allows(lines: list[str], index: int, rule: str) -> bool:
    """True when the line (or the one above it) carries an allow-comment."""
    for look in (index, index - 1):
        if 0 <= look < len(lines):
            match = ALLOW_RE.search(lines[look])
            if match and match.group("rule") == rule:
                return True
    return False


def function_bodies(text: str):
    """Yields (name, body) for every `name(...) { ... }` definition found by
    brace matching. Heuristic (no preprocessor, strings with braces can
    confuse it) but robust for this codebase's clang-format style."""
    for match in re.finditer(r"(?:[\w:~<>]+)\s*\(", text):
        name = match.group(0)[:-1].strip()
        # Find the opening brace after the matching close paren.
        depth, i = 1, match.end()
        while i < len(text) and depth:
            if text[i] == "(":
                depth += 1
            elif text[i] == ")":
                depth -= 1
            i += 1
        j = i
        while j < len(text) and text[j] in " \t\r\n":
            j += 1
        if j >= len(text) or text[j] != "{":
            continue
        depth, k = 1, j + 1
        while k < len(text) and depth:
            if text[k] == "{":
                depth += 1
            elif text[k] == "}":
                depth -= 1
            k += 1
        yield name, match.start(), text[j:k]


def check_file(root: pathlib.Path, path: pathlib.Path) -> list[Violation]:
    rel = path.relative_to(root).as_posix()
    text = path.read_text(errors="replace")
    lines = text.splitlines()
    found: list[Violation] = []

    def scan(rule: str, regex: re.Pattern, message: str):
        for i, line in enumerate(lines):
            stripped = line.split("//", 1)[0]
            if regex.search(stripped) and not line_allows(lines, i, rule):
                found.append(Violation(rel, i + 1, rule, message))

    if rel not in RAW_WRITE_EXEMPT:
        scan("raw-write", RAW_WRITE_RE,
             "bare write_file() bypasses write_file_atomic(); snapshots "
             "must be crash-safe (or annotate: praxi-lint: allow(raw-write))")

    if not rel.startswith(BLOCKING_SOCKET_EXEMPT_PREFIX):
        socket_message = (
            "raw socket syscall outside src/net/; use the bounded "
            "TcpStream/TcpListener wrappers (docs/SERVICE.md) or annotate: "
            "praxi-lint: allow(blocking-socket)")
        scan("blocking-socket", SOCKET_QUALIFIED_RE, socket_message)
        scan("blocking-socket", SOCKET_BARE_RE, socket_message)

    if rel.startswith(COLUMBUS_HOT_PREFIX) and rel not in COLUMBUS_HOT_EXEMPT:
        scan("columbus-hot-alloc", COLUMBUS_ALLOC_RE,
             "per-token heap allocation primitive on the Columbus hot path; "
             "use the arena pipeline (tokenize_views + SegmentInterner + "
             "ArenaTrie) or annotate: praxi-lint: allow(columbus-hot-alloc)")

    if rel not in WEIGHT_TABLE_EXEMPT:
        weight_table_message = (
            "WeightTable mutation outside ml::OnlineLearner; "
            "predict through an immutable ModelSnapshot (docs/API.md) or "
            "annotate: praxi-lint: allow(weight-table-mutation)")
        scan("weight-table-mutation", WEIGHT_TABLE_RE, weight_table_message)
        scan("weight-table-mutation", WEIGHT_TABLE_MUTATE_RE,
             weight_table_message)

    if not rel.startswith(ADHOC_SHARDING_EXEMPT_PREFIX):
        scan("ad-hoc-sharding", ADHOC_SHARDING_RE,
             "modulo over a shard count reshuffles ~all keys on membership "
             "change; map agent_id -> shard through cluster::HashRing "
             "(docs/CLUSTER.md) or annotate: praxi-lint: allow(ad-hoc-sharding)")

    scan("naked-mutex", NAKED_MUTEX_RE,
         "raw std:: synchronization primitive; use the annotated "
         "common::Mutex/LockGuard/CondVar (common/sync.hpp, "
         "docs/CONCURRENCY.md) or annotate: praxi-lint: allow(naked-mutex)")

    scan("naked-thread", NAKED_THREAD_RE,
         "raw std::thread; run cross-thread work on a ThreadPool "
         "(common/thread_pool.hpp) or annotate: praxi-lint: "
         "allow(naked-thread)")

    scan("iostream-in-library", IOSTREAM_RE,
         "library code must take std::ostream&, not include <iostream>")
    scan("naked-rand", RAND_RE,
         "rand()/srand() are unseeded and irreproducible; use praxi::Rng")
    scan("catch-by-value", CATCH_RE,
         "exception caught by value (slices subclasses); catch by "
         "(const) reference")

    # undocumented-magic: collect tags here; cross-checked against the doc
    # by the caller. A magic constant with no `// "XXXX"` tag comment at all
    # is flagged immediately — the tag is what the doc indexes by.
    for i, line in enumerate(lines):
        if MAGIC_NO_TAG_RE.search(line) and not MAGIC_RE.search(line) \
                and not line_allows(lines, i, "undocumented-magic"):
            found.append(Violation(
                rel, i + 1, "undocumented-magic",
                'envelope magic lacks its `// "XXXX"` tag comment'))

    # metric-naming and data-plane-catch both need cross-line context, so
    # they run on the comment-stripped full text rather than per line.
    stripped_text = "\n".join(line.split("//", 1)[0] for line in lines)

    for match in METRIC_REG_RE.finditer(stripped_text):
        kind, name = match.group("kind"), match.group("name")
        line_no = stripped_text.count("\n", 0, match.start()) + 1
        if line_allows(lines, line_no - 1, "metric-naming"):
            continue
        problem = None
        if not METRIC_NAME_RE.match(name):
            problem = "must match praxi_[a-z0-9_]+"
        elif kind == "counter" and not name.endswith("_total"):
            problem = "counters must end in _total"
        elif kind == "histogram" and not name.endswith(HISTOGRAM_SUFFIXES):
            problem = "histograms must end in _seconds, _bytes, or _count"
        elif kind == "gauge" and name.endswith("_total"):
            problem = "_total marks a counter; gauges carry no suffix"
        if problem:
            found.append(Violation(
                rel, line_no, "metric-naming",
                f'instrument "{name}" breaks the catalog scheme ({problem}; '
                "see docs/OBSERVABILITY.md)"))

    for match in CATCH_BLOCK_RE.finditer(stripped_text):
        line_no = stripped_text.count("\n", 0, match.start()) + 1
        if line_allows(lines, line_no - 1, "data-plane-catch"):
            continue
        # Skip the (exception declaration) parens, then brace-match the
        # handler body.
        depth, i = 1, match.end()
        while i < len(stripped_text) and depth:
            if stripped_text[i] == "(":
                depth += 1
            elif stripped_text[i] == ")":
                depth -= 1
            i += 1
        while i < len(stripped_text) and stripped_text[i] in " \t\r\n":
            i += 1
        if i >= len(stripped_text) or stripped_text[i] != "{":
            continue
        depth, j = 1, i + 1
        while j < len(stripped_text) and depth:
            if stripped_text[j] == "{":
                depth += 1
            elif stripped_text[j] == "}":
                depth -= 1
            j += 1
        body = stripped_text[i:j]
        if not CATCH_HANDLES_RE.search(body):
            found.append(Violation(
                rel, line_no, "data-plane-catch",
                "catch block swallows the error without recording it; "
                "record-and-continue (increment an instrument), report, or "
                "rethrow (or annotate: praxi-lint: allow(data-plane-catch))"))

    # missing-require-end: every from_binary/from_wire definition must drain
    # the reader, directly or through a same-file helper.
    if path.suffix == ".cpp" and DECODER_RE.search(text):
        bodies = list(function_bodies(text))
        helper_ok = {name.split("::")[-1]
                     for name, _, body in bodies if "require_end" in body}

        def drains(body: str) -> bool:
            if "require_end" in body:
                return True
            return any(re.search(r"\b%s\s*\(" % re.escape(helper), body)
                       for helper in helper_ok)

        for name, start, body in bodies:
            if not re.search(r"::(?:from_binary|from_wire)$", name):
                continue
            if not drains(body):
                line_no = text.count("\n", 0, start) + 1
                if not line_allows(lines, line_no - 1, "missing-require-end"):
                    found.append(Violation(
                        rel, line_no, "missing-require-end",
                        f"decoder {name}() never calls require_end(); "
                        "trailing bytes would be silently accepted"))
    return found


def collect_magic_tags(root: pathlib.Path):
    """(rel_path, line, tag) for every tagged magic constant under src/."""
    for path in sorted((root / "src").rglob("*")):
        if path.suffix not in SOURCE_SUFFIXES:
            continue
        for i, line in enumerate(path.read_text(errors="replace").splitlines()):
            match = MAGIC_RE.search(line)
            if match:
                yield path.relative_to(root).as_posix(), i + 1, \
                    match.group("tag")


def lint(root: pathlib.Path) -> list[Violation]:
    violations: list[Violation] = []
    for path in sorted((root / "src").rglob("*")):
        if path.suffix in SOURCE_SUFFIXES:
            violations.extend(check_file(root, path))

    doc = root / "docs" / "PERSISTENCE.md"
    doc_text = doc.read_text(errors="replace") if doc.exists() else ""
    for rel, line, tag in collect_magic_tags(root):
        if tag not in doc_text:
            violations.append(Violation(
                rel, line, "undocumented-magic",
                f'envelope magic "{tag}" is not documented in '
                "docs/PERSISTENCE.md"))
    return violations


# ---------------------------------------------------------------------------
# Self-test: seed one violation per rule, assert each fires — so a refactor
# of the regexes above cannot silently lobotomize a rule.
# ---------------------------------------------------------------------------

SELFTEST_CLEAN = """\
#include <ostream>
#include "common/serialize.hpp"
namespace praxi {
constexpr std::uint32_t kGoodMagic = 0x50474f31U;  // "PGO1"
Thing Thing::from_binary(std::string_view bytes) {
  BinaryReader r(bytes);
  r.require_end("thing");
  return Thing{};
}
void save(const std::string& path, std::string_view bytes) {
  write_file_atomic(path, bytes);
}
void debug_dump(const std::string& path) {
  write_file(path, "x");  // praxi-lint: allow(raw-write: scratch output)
}
void load(std::ostream& err) {
  try {
  } catch (const SerializeError& e) {
    err << "load failed: " << e.what() << "\\n";
  }
}
void instruments() {
  obs::MetricsRegistry::global().counter(
      "praxi_selftest_loads_total", "well-named, multi-line registration");
  obs::MetricsRegistry::global().gauge("praxi_selftest_depth", "no suffix");
  obs::MetricsRegistry::global().histogram(
      "praxi_selftest_load_seconds", "unit suffix", obs::latency_buckets());
}
void forensics() {
  try {
  } catch (...) {  // praxi-lint: allow(data-plane-catch: best effort)
  }
}
void wrapper_internals() {
  // praxi-lint: allow(naked-mutex: the wrapper itself)
  static std::mutex raw;
  (void)raw;
}
std::size_t workers() {
  return std::thread::hardware_concurrency();
}
struct Pool {
  std::vector<std::thread> workers;  // praxi-lint: allow(naked-thread: pool)
};
}  // namespace praxi
"""

SELFTEST_VIOLATIONS = {
    "raw-write": "void f() { write_file(path, bytes); }\n",
    "missing-require-end": (
        "Thing Thing::from_binary(std::string_view bytes) {\n"
        "  BinaryReader r(bytes);\n"
        "  return Thing{};\n"
        "}\n"),
    "undocumented-magic": (
        'constexpr std::uint32_t kEvilMagic = 0x45564c31U;  // "EVL1"\n'),
    "iostream-in-library": "#include <iostream>\n",
    "naked-rand": "int f() { return rand(); }\n",
    "catch-by-value": (
        "void f() {\n"
        "  try {\n"
        "  } catch (SerializeError e) {\n"
        "    throw;\n"
        "  }\n"
        "}\n"),
    "metric-naming": (
        "void f() {\n"
        "  obs::MetricsRegistry::global().counter(\n"
        '      "praxi_bad_things", "counter missing its _total suffix");\n'
        "}\n"),
    "data-plane-catch": (
        "void f() {\n"
        "  try {\n"
        "    g();\n"
        "  } catch (const SerializeError&) {\n"
        "  }\n"
        "}\n"),
    "blocking-socket": (
        "int f(int fd) { return ::connect(fd, nullptr, 0); }\n"),
    "naked-mutex": (
        "#include <mutex>\n"
        "void f() { std::mutex m; (void)m; }\n",
        "#include <atomic>\n"
        "std::atomic<std::shared_ptr<const int>> cell;\n",
        "std::atomic<core::ModelSnapshotPtr> cell;\n",
        "void f(std::shared_ptr<int>* p) { (void)std::atomic_load(p); }\n"),
    "naked-thread": (
        "#include <thread>\n"
        "void f() { std::thread worker([] {}); worker.join(); }\n"),
    "weight-table-mutation": (
        "void f(praxi::ml::detail::WeightTable& table) {\n"
        "  table.update(x, 0, 0.1f, 0.0f);\n"
        "}\n"),
    "ad-hoc-sharding": (
        "std::uint32_t owner(std::uint64_t hash, std::size_t num_shards) {\n"
        "  return static_cast<std::uint32_t>(hash % num_shards);\n"
        "}\n"),
}

# Rules scoped to a subtree need their seed planted there; everything else
# lands directly under src/.
SELFTEST_SEED_DIRS = {
    "columbus-hot-alloc": "src/columbus",
}
SELFTEST_VIOLATIONS["columbus-hot-alloc"] = (
    "#include <map>\n"
    "struct Node { std::map<char, Node*> children; };\n")

# A columbus file whose only allocation primitive carries the allow
# annotation must stay clean — this pins the escape hatch open.
SELFTEST_COLUMBUS_CLEAN = """\
namespace praxi::columbus {
void legacy_shim(const Tokenizer& tokenizer, std::string_view path) {
  // praxi-lint: allow(columbus-hot-alloc: equivalence-test baseline)
  (void)tokenizer.tokenize(path);
}
}  // namespace praxi::columbus
"""


def self_test() -> int:
    failures = []
    with tempfile.TemporaryDirectory(prefix="praxi_lint_selftest") as tmp:
        root = pathlib.Path(tmp)
        (root / "src").mkdir()
        (root / "docs").mkdir()
        (root / "docs" / "PERSISTENCE.md").write_text(
            'Documented magics: "PGO1".\n')

        (root / "src" / "clean.cpp").write_text(SELFTEST_CLEAN)
        (root / "src" / "columbus").mkdir()
        (root / "src" / "columbus" / "clean_columbus.cpp").write_text(
            SELFTEST_COLUMBUS_CLEAN)
        clean_hits = lint(root)
        if clean_hits:
            failures.append(f"clean tree reported: {list(map(str, clean_hits))}")

        for rule, snippets in SELFTEST_VIOLATIONS.items():
            seed_dir = root / SELFTEST_SEED_DIRS.get(rule, "src")
            seed_dir.mkdir(parents=True, exist_ok=True)
            seeded = seed_dir / f"seed_{rule.replace('-', '_')}.cpp"
            # A rule with several patterns seeds each one on its own.
            for snippet in ((snippets,) if isinstance(snippets, str)
                            else snippets):
                seeded.write_text(snippet)
                fired = {v.rule for v in lint(root)}
                seeded.unlink()
                if rule not in fired:
                    failures.append(f"rule {rule} did not fire on seeded "
                                    f"violation {snippet!r}")

    if failures:
        for failure in failures:
            print("SELF-TEST FAIL:", failure, file=sys.stderr)
        return 1
    print(f"self-test ok: all {len(SELFTEST_VIOLATIONS)} rules fire, "
          "clean tree stays clean")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", type=pathlib.Path,
                        default=pathlib.Path(__file__).resolve().parent.parent)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    if args.self_test:
        return self_test()

    violations = lint(args.root)
    for violation in violations:
        print(violation)
    if violations:
        print(f"praxi_lint: {len(violations)} violation(s)", file=sys.stderr)
        return 1
    print("praxi_lint: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
