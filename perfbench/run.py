#!/usr/bin/env python3
"""Builds and runs the Reflex end-to-end benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload corpus_batch --seed 42 \
        --seconds 20 --trace 0
    python3 perfbench/run.py --quick      # every workload, a few requests

The benchmark program (perfbench/reflex_bench.cc) is compiled together
with libreflex from ../src into $CARGO_TARGET_DIR (default .bench_build),
in Release mode; later runs reuse the build. Build output goes to stderr.
The last line of stdout is the benchmark's JSON result. See README.md.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["corpus_batch", "oneshot_cached", "daemon_edit",
             "portfolio_verdicts"]
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    """Configures (once) and builds reflex_bench; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("reflex sources not found: expected src/CMakeLists.txt "
             "beside perfbench/")
    if not shutil.which("cmake"):
        fail("cmake not found on PATH")
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, build_dir)
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", build_dir, "--target",
                       "reflex_bench", "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(build_dir, "reflex_bench")


def run_once(binary, args):
    """Runs the benchmark program once; returns its parsed result."""
    cmd = [binary] + args
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"benchmark exceeded {RUN_TIMEOUT_S} s: {' '.join(args)}")
    finally:
        # The program removes its own scratch directory; this covers a
        # crash. Only the (then empty) parent is left to remove.
        tmp = os.path.join(ROOT, ".bench_tmp")
        if os.path.isdir(tmp) and not os.listdir(tmp):
            os.rmdir(tmp)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"benchmark exited with code {proc.returncode}: "
             f"{' '.join(args)}")
    sys.stderr.write("\n".join(lines[:-1]) + ("\n" if len(lines) > 1 else ""))
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(f"benchmark printed no JSON result: {lines[-1][:200]}")


def quick(binary):
    """Every workload for a few requests, untraced and traced."""
    ok, attempted, failed = True, 0, 0
    for w in WORKLOADS:
        for trace in ("0", "1"):
            r = run_once(binary, ["--workload", w, "--seed", "42",
                                  "--seconds", "1", "--trace", trace,
                                  "--quick"])
            print(f"{w:20s} trace={trace} correct={r['correct']} "
                  f"attempted={r['attempted']} failed={r['failed']} "
                  f"metrics={len(r['metrics'])}")
            ok = ok and r["correct"]
            attempted += r["attempted"]
            failed += r["failed"]
    print(json.dumps({"correct": ok, "attempted": attempted,
                      "failed": failed, "metrics": {}}))
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=42,
                    help="request-stream seed")
    ap.add_argument("--corpus-seed", type=int, default=42,
                    help="generated-corpus seed (pinned yardstick: 42)")
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    ap.add_argument("--quick", action="store_true",
                    help="run every workload briefly with all checks on")
    a = ap.parse_args()
    if not a.quick and not a.workload:
        ap.error("--workload is required (or --quick)")
    binary = build()
    if a.quick:
        return quick(binary)
    result = run_once(binary, ["--workload", a.workload,
                               "--seed", str(a.seed),
                               "--corpus-seed", str(a.corpus_seed),
                               "--seconds", str(a.seconds),
                               "--trace", a.trace])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
