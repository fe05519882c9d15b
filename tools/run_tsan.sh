#!/usr/bin/env bash
# Race-checks the verification service under ThreadSanitizer.
#
# Builds the tree into build-tsan/ with -fsanitize=thread (the
# REFLEX_SANITIZE CMake option), then runs the two concurrent entry
# points:
#   * tests/service_test      — thread pool, scheduler, shared proof cache
#   * tests/daemon_test       — reflexd: thread-per-client request handling,
#                               per-request watcher threads, shared sessions
#   * bench/bench_parallel    — the full 41-property suite on 4 workers,
#                               in --smoke mode (one repetition)
#   * tests/prover_test       — the PDR engine and the (sequential)
#                               portfolio
#   * bench/bench_portfolio   — every kernel under every engine at 1 and
#                               4 workers, in --smoke mode
#   * tests/chaos_test        — journal appends from handler threads,
#                               overload shedding under concurrent
#                               clients, supervised restarts
#   * tests/solver_test       — the incremental solver core: scopes, the
#                               undo trail, reason trails
#   * tests/solver_diff_test  — incremental-vs-reference differential and
#                               verdict parity across jobs/engines/faults
#                               (racing workers, each with a private
#                               solver, share one frozen abstraction)
#   * bench/bench_solver      — scoped-vs-scratch query parity + reason
#                               trail replay, in --smoke mode
#   * bench/bench_incremental — footprint-reuse scenarios incl. the
#                               path-granular branch-leaf audit, with
#                               scheduler-batched re-verification,
#                               in --smoke mode
#   * tests/corpus_diff_test  — the generated-corpus differential oracle:
#                               parity arms race the scheduler across
#                               jobs/cache states on machine-made
#                               kernels
#
# Usage: tools/run_tsan.sh [build-dir]       (default: build-tsan)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD="${1:-build-tsan}"

cmake -B "$BUILD" -S . -DREFLEX_SANITIZE=thread >/dev/null
cmake --build "$BUILD" -j "$(nproc)" --target service_test daemon_test prover_test \
  chaos_test solver_test solver_diff_test corpus_diff_test bench_parallel \
  bench_portfolio bench_solver bench_incremental

# Halt on the first report and fail the script (exit code 66 is TSan's
# conventional "issues found" code under halt_on_error).
export TSAN_OPTIONS="halt_on_error=1 exitcode=66 ${TSAN_OPTIONS:-}"

echo "== service_test (TSan) =="
"$BUILD/tests/service_test"

echo "== daemon_test (TSan) =="
"$BUILD/tests/daemon_test"

echo "== bench_parallel --jobs 4 --smoke (TSan) =="
"$BUILD/bench/bench_parallel" --jobs 4 --smoke \
  --out "$BUILD/BENCH_parallel.smoke.json"

echo "== prover_test (TSan) =="
"$BUILD/tests/prover_test"

echo "== bench_portfolio --jobs 4 --smoke (TSan) =="
"$BUILD/bench/bench_portfolio" --jobs 4 --smoke \
  --out "$BUILD/BENCH_portfolio.smoke.json"

echo "== chaos_test (TSan) =="
"$BUILD/tests/chaos_test"

echo "== solver_test (TSan) =="
"$BUILD/tests/solver_test"

echo "== solver_diff_test (TSan) =="
"$BUILD/tests/solver_diff_test"

echo "== bench_solver --smoke (TSan) =="
"$BUILD/bench/bench_solver" --smoke --depth 4 --lanes 4 \
  --out "$BUILD/BENCH_solver.smoke.json"

echo "== bench_incremental --smoke (TSan) =="
"$BUILD/bench/bench_incremental" --smoke --stages 6 \
  --out "$BUILD/BENCH_incremental.smoke.json"

echo "== corpus_diff_test (TSan) =="
"$BUILD/tests/corpus_diff_test"

echo "TSan: no data races reported"
