#!/usr/bin/env bash
# Memory- and UB-checks the fault-tolerance paths under ASan + UBSan.
#
# Builds the tree into build-asan/ with -fsanitize=address,undefined (the
# REFLEX_SANITIZE CMake option accepts the comma-separated list), then
# runs the entry points that exercise injected faults, corrupted cache
# entries, worker retries, and script crash isolation:
#   * tests/service_test      — quarantine, orphan sweep, faulted batches
#   * tests/daemon_test       — reflexd request/session/GC lifecycle incl.
#                               malformed-frame and vanished-client paths
#   * tests/robustness_test   — seeded pipeline fuzz, runtime crash isolation
#   * bench/bench_faults      — budgets + faults over the full suite,
#                               in --smoke mode (one repetition)
#   * tests/certificate_test  — certificate tampering/truncation incl.
#                               the PDR clausal certificates
#   * bench/bench_portfolio   — every kernel under every engine at 1 and
#                               4 workers, in --smoke mode
#   * tests/chaos_test        — torn/tampered journal replay, kill -9
#                               recovery, shedding, supervised restarts
#   * tests/solver_test       — the incremental core's undo trail and
#                               watched-term indexing (pointer-heavy)
#   * tests/solver_diff_test  — randomized scoped-vs-scratch solving and
#                               tampered reason-trail rejection
#   * bench/bench_solver      — scoped-vs-scratch query parity + reason
#                               trail replay, in --smoke mode
#   * tests/footprint_stmt_test — per-statement mutation audits and the
#                               path-fingerprint machinery (render-heavy,
#                               cache entry decode/migration)
#   * bench/bench_incremental — footprint-reuse scenarios incl. the
#                               path-granular branch-leaf audit,
#                               in --smoke mode
#   * tests/gen_test          — the scenario factory: seeded emission,
#                               manifest rendering, ill-formed mutants
#                               through the validator's error paths
#   * tests/corpus_diff_test  — the differential oracle end to end incl.
#                               counterexample replay and interpreter
#                               refinement on machine-made kernels
#
# Usage: tools/run_asan.sh [build-dir]       (default: build-asan)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD="${1:-build-asan}"

cmake -B "$BUILD" -S . -DREFLEX_SANITIZE=address,undefined >/dev/null
cmake --build "$BUILD" -j "$(nproc)" --target service_test daemon_test robustness_test \
  certificate_test chaos_test solver_test solver_diff_test \
  footprint_stmt_test gen_test corpus_diff_test bench_faults \
  bench_portfolio bench_solver bench_incremental

# Fail the script on the first report from either sanitizer.
export ASAN_OPTIONS="halt_on_error=1 detect_leaks=1 ${ASAN_OPTIONS:-}"
export UBSAN_OPTIONS="halt_on_error=1 print_stacktrace=1 ${UBSAN_OPTIONS:-}"

echo "== service_test (ASan+UBSan) =="
"$BUILD/tests/service_test"

echo "== daemon_test (ASan+UBSan) =="
"$BUILD/tests/daemon_test"

echo "== robustness_test (ASan+UBSan) =="
"$BUILD/tests/robustness_test"

echo "== bench_faults --smoke (ASan+UBSan) =="
"$BUILD/bench/bench_faults" --smoke --out "$BUILD/BENCH_faults.smoke.json"

echo "== certificate_test (ASan+UBSan) =="
"$BUILD/tests/certificate_test"

echo "== bench_portfolio --smoke (ASan+UBSan) =="
"$BUILD/bench/bench_portfolio" --smoke \
  --out "$BUILD/BENCH_portfolio.smoke.json"

echo "== chaos_test (ASan+UBSan) =="
"$BUILD/tests/chaos_test"

echo "== solver_test (ASan+UBSan) =="
"$BUILD/tests/solver_test"

echo "== solver_diff_test (ASan+UBSan) =="
"$BUILD/tests/solver_diff_test"

echo "== bench_solver --smoke (ASan+UBSan) =="
"$BUILD/bench/bench_solver" --smoke --depth 4 --lanes 4 \
  --out "$BUILD/BENCH_solver.smoke.json"

echo "== footprint_stmt_test (ASan+UBSan) =="
"$BUILD/tests/footprint_stmt_test"

echo "== bench_incremental --smoke (ASan+UBSan) =="
"$BUILD/bench/bench_incremental" --smoke --stages 6 \
  --out "$BUILD/BENCH_incremental.smoke.json"

echo "== gen_test (ASan+UBSan) =="
"$BUILD/tests/gen_test"

echo "== corpus_diff_test (ASan+UBSan) =="
"$BUILD/tests/corpus_diff_test"

echo "ASan/UBSan: no issues reported"
