#!/usr/bin/env bash
# Runs the service benches in smoke mode as a fast CI gate.
#
# Smoke mode is one repetition with no speedup expectations: the benches
# exit non-zero on what must *never* regress — nondeterministic verdicts
# across worker counts or sharing modes, a warm proof cache that fails
# to serve (and re-validate) every verdict on both re-check paths, or a
# fault-tolerance failure in bench_faults, or an incremental
# re-verification whose verdicts diverge from a from-scratch run
# (bench_incremental's mutation audit), or a crash-recovery/overload
# regression in bench_chaos (lost sessions, un-truncated torn journal
# tails, dropped accepted requests), or a generated-corpus failure in
# bench_corpus (an oracle mismatch between the verifier and the
# construction-time ground truth, a non-reproducible seed, a dedupe or
# warm-cache coverage hole, a daemon wire verdict diverging from the
# local baseline). The timed, multi-repetition runs that produce the
# committed BENCH_*.json artifacts are run manually.
#
# Usage: tools/run_bench_smoke.sh [build-dir]       (default: build)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD="${1:-build}"

cmake -B "$BUILD" -S . >/dev/null
cmake --build "$BUILD" -j "$(nproc)" --target bench_parallel bench_faults \
  bench_incremental bench_chaos bench_solver bench_corpus reflex_cli

ctest --test-dir "$BUILD" -L bench-smoke --output-on-failure

echo "bench-smoke: all gates passed"
