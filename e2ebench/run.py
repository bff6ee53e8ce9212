#!/usr/bin/env python3
"""gscope's end-to-end benchmark, as one command.

    python3 e2ebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 e2ebench/run.py --self-test

Run it from the repository root.  It builds the benchmark and the gscope
library from source with CMake (into $CARGO_TARGET_DIR, default
.bench_build, under e2ebench/), then runs one workload.  Build output and
run detail go to stderr; the last line on stdout is the run's JSON result.
--self-test builds and runs the tests of the benchmark's own logic instead.

Exit codes: 0 = the run completed (its JSON says whether the outputs were
correct), 1 = the run failed, 2 = bad arguments or no gscope sources,
3 = the run hit its wall-clock cap, 4 = the build failed.
"""
import argparse
import glob
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 840   # the first run in a checkout builds
RUN_TIMEOUT_S = 175     # e2ebench aborts itself at 170 s; this is a backstop


def fail(message, code):
    print(f"e2ebench: {message}", file=sys.stderr)
    sys.exit(code)


def build(build_dir, target):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", target, "-j", jobs])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            fail(f"build step {' '.join(cmd)} failed: {e}", 4)
        if done.returncode != 0:
            fail(f"build step {' '.join(cmd)} exited {done.returncode}", 4)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if not args.self_test and (args.workload is None or args.seed is None or
                               args.seconds is None):
        fail("--workload, --seed and --seconds are required", 2)
    if not os.path.isfile(os.path.join(ROOT, "src", "gscope.h")):
        fail(f"gscope sources not found under {ROOT}/src", 2)

    build_root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    build_dir = os.path.join(build_root, "e2ebench")
    if args.self_test:
        build(build_dir, "e2ebench_test")
        test = os.path.join(build_dir, "e2ebench_test")
        if not os.path.isfile(test):
            fail("e2ebench_test was not built (GTest missing?)", 4)
        sys.exit(subprocess.run([test]).returncode)

    build(build_dir, "e2ebench")
    scratch = os.path.join(build_root, "scratch")
    cmd = [os.path.join(build_dir, "e2ebench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--scratch", scratch]
    if args.trace:
        traces = os.path.join(build_root, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(traces, f"{args.workload}-seed{args.seed}.tsv")]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run did not end within {RUN_TIMEOUT_S} s", 3)
    finally:
        # A run removes its recorder logs itself, unless it failed or hit its cap.
        for leftover in glob.glob(os.path.join(scratch, "run-*")):
            shutil.rmtree(leftover, ignore_errors=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        fail(f"run failed (exit {done.returncode})", done.returncode or 1)
    print(lines[-1])


if __name__ == "__main__":
    main()
