#!/usr/bin/env python3
"""Build the benchmark program from source and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the repository root. The program and the dgr libraries it links are
built with CMake into the directory named by CARGO_TARGET_DIR (default
.bench_build, relative to the repository root); later runs rebuild only what
changed. The last line of standard output is the program's JSON result; build
output and diagnostics go to standard error. Exits non-zero without a result
when the build fails or the program does not produce a well-formed result.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build(out):
    """Configures (once) and builds the program and its self-test."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or not os.path.isdir(
            os.path.join(ROOT, "src")):
        fail(f"no dgr sources next to {HERE}; run from a full checkout")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs, "--target", "perfbench",
                  "perfbench_selftest"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))


def valid_result(line):
    try:
        doc = json.loads(line)
    except ValueError:
        return False
    if not isinstance(doc, dict) or set(doc) != RESULT_KEYS:
        return False
    if not isinstance(doc["correct"], bool) or not isinstance(doc["metrics"], dict):
        return False
    if not all(isinstance(doc[k], int) for k in ("attempted", "failed")) or doc["attempted"] < 1:
        return False
    return all(isinstance(m, dict) and set(m) == {"value", "unit"}
               and isinstance(m["value"], (int, float)) for m in doc["metrics"].values())


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1))
    ap.add_argument("--selftest", action="store_true", help="run the statistics self-tests")
    args = ap.parse_args()

    out = build_dir()
    if args.selftest:
        build(out)
        sys.exit(subprocess.run([os.path.join(out, "perfbench_selftest")]).returncode)
    if args.workload is None or args.seed is None or args.seconds is None or args.trace is None:
        ap.error("--workload, --seed, --seconds and --trace are required")
    build(out)

    cmd = [os.path.join(out, "perfbench"), "--workload", args.workload, "--seed",
           str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        fail(f"perfbench exceeded {RUN_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines or not valid_result(lines[-1]):
        sys.stderr.write(proc.stdout)
        fail(f"perfbench exited {proc.returncode} without a well-formed result")
    print("\n".join(lines), flush=True)


if __name__ == "__main__":
    main()
