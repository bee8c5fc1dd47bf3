#!/usr/bin/env bash
# Static-analysis gate entry point (docs/STATIC_ANALYSIS.md).
#
#   tools/check.sh             run every lane below in order, stopping at
#                              the first failure
#   tools/check.sh --all       run every lane, KEEP GOING past failures,
#                              exit non-zero if any lane failed
#   tools/check.sh --tier1     tier-1 build + full ctest (includes fuzz
#                              smoke + praxi_lint)
#   tools/check.sh --werror    strict-warnings build (PRAXI_WERROR=ON)
#   tools/check.sh --tsa       clang Thread Safety Analysis as errors
#                              (PRAXI_TSA=ON) + the negative-compile check
#                              that proves the analysis actually rejects a
#                              guarded-field access without its lock
#                              (docs/CONCURRENCY.md; needs clang)
#   tools/check.sh --tidy      clang-tidy over the compile database
#   tools/check.sh --lint      tools/praxi_lint.py + its self-test
#   tools/check.sh --fuzz      fuzz smoke tests only (already in tier-1)
#   tools/check.sh --bench-smoke  build + one tiny pass of the Columbus
#                              micro-benches (build-rot canary, not a
#                              measurement)
#   tools/check.sh --format    verify formatting (no rewrite)
#   tools/check.sh --tsan      ThreadSanitizer pass over the concurrency
#                              tests: metrics registry, socket transport,
#                              WAL + restart/ingest, serve-while-learn
#                              snapshots, sharded cluster (gcc or clang)
#
# Lane flags can be combined (e.g. `--lint --tsa`). Every run ends with a
# summary table: which lanes ran, which were skipped, which failed.
#
# Lanes that need a tool the machine lacks (clang, clang-tidy,
# clang-format) are SKIPPED with a notice, not failed — the configs are
# checked in so any machine that has the tools enforces them. A lane
# signals the skip by exiting its subshell with 77 (the conventional
# automake SKIP code); any other non-zero exit is a failure.
set -euo pipefail

cd "$(dirname "$0")/.."
ROOT=$PWD
JOBS=$(nproc 2>/dev/null || echo 4)

note()  { printf '\n== %s\n' "$*"; }
# Called from inside a lane: prints the notice and exits the lane's
# subshell with the SKIP code so the driver records "skipped", not "ran".
skip()  { printf '\n== SKIPPED: %s\n' "$*"; exit 77; }

run_tier1() {
  note "tier-1: build + ctest (unit, persistence, fuzz smoke, praxi_lint)"
  cmake -B build -S . -DCMAKE_EXPORT_COMPILE_COMMANDS=ON >/dev/null
  cmake --build build -j "$JOBS"
  ctest --test-dir build --output-on-failure -j "$JOBS"
}

run_werror() {
  note "strict warnings: PRAXI_WERROR=ON (-Wconversion -Wsign-conversion \
-Wshadow -Wnon-virtual-dtor -Wold-style-cast -Werror; +-Wthread-safety \
under clang)"
  cmake -B build-werror -S . -DPRAXI_WERROR=ON >/dev/null
  cmake --build build-werror -j "$JOBS"
}

run_tsa() {
  # Compile-time concurrency proofs (docs/CONCURRENCY.md): every lock in
  # src/ is an annotated common::Mutex, so clang's Thread Safety Analysis
  # can verify — at compile time — that guarded fields are only touched
  # with their lock held. gcc parses the annotations as unknown attributes
  # and proves nothing, so this lane insists on clang and skips otherwise
  # (the lock-rank runtime checker still runs everywhere).
  if ! command -v clang++ >/dev/null; then
    skip "clang++ not installed (tsa lane: -Werror=thread-safety needs \
clang's Thread Safety Analysis; the configs are checked in)"
  fi
  note "thread safety analysis: PRAXI_TSA=ON (-Werror=thread-safety)"
  cmake -B build-tsa -S . -DPRAXI_TSA=ON \
    -DCMAKE_CXX_COMPILER=clang++ -DCMAKE_C_COMPILER=clang >/dev/null
  cmake --build build-tsa -j "$JOBS"

  # Negative-compile check: a guarded-field access without the lock MUST
  # be rejected, or the lane is proving nothing. tsa_negcompile.cpp reads
  # a PRAXI_GUARDED_BY field with no lock held; compiling the same file
  # with -DPRAXI_NEGCOMPILE_LOCKED takes the lock first and must succeed —
  # the positive control that guards against the violation "failing" due
  # to an unrelated compile error.
  note "tsa negative-compile: unguarded access must fail, locked control \
must pass"
  local negsrc=tests/tsa_negcompile.cpp
  local flags=(-std=c++20 -fsyntax-only -Isrc
               -Wthread-safety -Werror=thread-safety)
  if clang++ "${flags[@]}" "$negsrc" 2>/dev/null; then
    echo "ERROR: $negsrc compiled without holding the lock — Thread" \
         "Safety Analysis is not enforcing PRAXI_GUARDED_BY" >&2
    exit 1
  fi
  clang++ "${flags[@]}" -DPRAXI_NEGCOMPILE_LOCKED "$negsrc"
  echo "negative-compile check ok: violation rejected, control accepted"
}

run_tidy() {
  if ! command -v clang-tidy >/dev/null; then
    skip "clang-tidy not installed (config: .clang-tidy)"
  fi
  note "clang-tidy over the compile database"
  cmake -B build -S . -DCMAKE_EXPORT_COMPILE_COMMANDS=ON >/dev/null
  if command -v run-clang-tidy >/dev/null; then
    run-clang-tidy -p build -quiet "$ROOT/src/.*" "$ROOT/fuzz/.*"
  else
    find src fuzz -name '*.cpp' -print0 |
      xargs -0 -n 1 -P "$JOBS" clang-tidy -p build --quiet
  fi
}

run_lint() {
  note "project invariants: tools/praxi_lint.py"
  python3 tools/praxi_lint.py --self-test
  python3 tools/praxi_lint.py --root "$ROOT"
}

run_fuzz() {
  note "fuzz smoke: bounded run of every harness over its seed corpus"
  cmake -B build -S . >/dev/null
  cmake --build build -j "$JOBS" --target \
    fuzz_prx1 fuzz_poa1 fuzz_pcs2 fuzz_pcs1 fuzz_ptg1 fuzz_pts1 \
    fuzz_pds1 fuzz_pw2v fuzz_psv1 fuzz_prpt fuzz_wal fuzz_frame \
    fuzz_tokenizer fuzz_columbus_arena
  ctest --test-dir build -R '^fuzz_smoke_' --output-on-failure -j "$JOBS"
}

run_bench_smoke() {
  # One tiny pass of the component micro-benches: proves the bench binary
  # still builds and runs (numbers from a smoke pass are noise — use a
  # dedicated quiet machine for real measurements).
  note "bench smoke: micro_components (minimal iterations, not a measurement)"
  cmake -B build -S . >/dev/null
  cmake --build build -j "$JOBS" --target micro_components load_cluster
  ./build/bench/micro_components --benchmark_min_time=0.01 \
    --benchmark_filter='BM_(FrequencyTrieInsert|ArenaTrieInsert|Tokenize|TokenizeViews|ColumbusExtract|ColumbusExtractLegacy)$'
  # Tiny cluster load-generator pass: proves the sharded socket path still
  # builds, routes, settles, and emits its JSON (docs/CLUSTER.md).
  ./build/bench/load_cluster --smoke
}

run_tsan() {
  # TSan proves the absence of data races, not just the absence of wrong
  # answers, so it runs every case of every suite that hammers a
  # concurrency promise — the ones tests/CMakeLists.txt labels
  # `concurrency` — in one build-tsan tree, on whatever compiler builds it:
  #   obs_test       lock-free metric updates vs concurrent collect/render
  #   net_test       per-connection reader threads + accept loop draining
  #                  into one bounded queue while clients push
  #   wal_test,      the settle path's lock nesting (server state -> WAL
  #   transport_test -> metrics registry) through restarts and
  #                  at-least-once redelivery
  #   snapshot_test  predict threads pinning epochs through the snapshot
  #                  cell while the trainer publishes
  #   cluster_test   the router's per-round fork-join over its shard pools,
  #                  fed by socket agents through one frontend
  note "ThreadSanitizer: ctest label concurrency (obs, net, wal, transport, \
snapshot, cluster)"
  cmake -B build-tsan -S . -DPRAXI_SANITIZE=thread >/dev/null
  cmake --build build-tsan -j "$JOBS" --target obs_test net_test wal_test \
    transport_test snapshot_test cluster_test
  ctest --test-dir build-tsan -L concurrency --output-on-failure
}

run_format() {
  if ! command -v clang-format >/dev/null; then
    skip "clang-format not installed (config: .clang-format)"
  fi
  note "format check (dry run, no rewrite)"
  find src fuzz tests bench examples tools -name '*.cpp' -o -name '*.hpp' |
    xargs clang-format --dry-run --Werror
}

# ---------------------------------------------------------------------------
# Lane driver: each lane runs in its own subshell so one lane's failure (or
# skip via exit 77) never tears down the driver; results accumulate into the
# end-of-run summary table.

ALL_LANES=(tier1 werror tsa tidy lint bench-smoke tsan format)
LANES_RAN=()
LANES_SKIPPED=()
LANES_FAILED=()
KEEP_GOING=0

summary() {
  printf '\n== lane summary (%d ran, %d skipped, %d failed)\n' \
    "${#LANES_RAN[@]}" "${#LANES_SKIPPED[@]}" "${#LANES_FAILED[@]}"
  local name
  for name in "${LANES_RAN[@]}";     do printf '   ran      %s\n' "$name"; done
  for name in "${LANES_SKIPPED[@]}"; do printf '   skipped  %s\n' "$name"; done
  for name in "${LANES_FAILED[@]}";  do printf '   FAILED   %s\n' "$name"; done
}

run_lane() {
  local name=$1 fn status=0
  fn="run_${name//-/_}"
  ( set -euo pipefail; "$fn" ) || status=$?
  if [ "$status" -eq 0 ]; then
    LANES_RAN+=("$name")
  elif [ "$status" -eq 77 ]; then
    LANES_SKIPPED+=("$name")
  else
    LANES_FAILED+=("$name")
    printf '\n== FAILED: %s lane (exit %d)\n' "$name" "$status"
    if [ "$KEEP_GOING" -ne 1 ]; then
      summary
      exit "$status"
    fi
  fi
}

usage() {
  echo "usage: tools/check.sh [--all] [--tier1|--werror|--tsa|--tidy|" \
       "--lint|--fuzz|--bench-smoke|--format|--tsan]..." >&2
}

SELECTED=()
for arg in "$@"; do
  case "$arg" in
    --all) KEEP_GOING=1 ;;
    --tier1|--werror|--tsa|--tidy|--lint|--fuzz|--bench-smoke|--format|--tsan)
      SELECTED+=("${arg#--}") ;;
    *) usage; exit 2 ;;
  esac
done
if [ "${#SELECTED[@]}" -eq 0 ]; then
  SELECTED=("${ALL_LANES[@]}")
fi

for name in "${SELECTED[@]}"; do
  run_lane "$name"
done

summary
if [ "${#LANES_FAILED[@]}" -gt 0 ]; then
  printf '\ncheck.sh: %d lane(s) FAILED\n' "${#LANES_FAILED[@]}"
  exit 1
fi
printf '\ncheck.sh: all requested lanes green\n'
