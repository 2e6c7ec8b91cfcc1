#!/usr/bin/env python3
"""Builds the benchmark from this checkout's sources and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Run from the root of a checkout. The build goes to the directory named by
CARGO_TARGET_DIR (default .bench_build), under perfbench-<checkout hash>/,
so two checkouts sharing one build directory never build each other's
sources; a traced run writes its spans to trace/ in that directory. The
last line of standard output is the JSON result. The exit code is non-zero
when the build fails, the run fails or times out, or a correctness gate
fails.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("train-mf-sampled", "train-lgn-inbatch", "serve-socket-mixed")
RUN_TIMEOUT_S = 170


def fail(message, code):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build(build_dir):
    """Configures (once) and builds the benchmark; returns the binary."""
    if not os.path.isfile(os.path.join(ROOT, "src", "train", "trainer.cc")):
        fail("library sources (src/) not found next to perfbench/", 2)
    cache = os.path.join(build_dir, "CMakeCache.txt")
    steps = []
    if not os.path.isfile(cache):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j4", "--target",
                  "perfbench"])
    for cmd in steps:
        done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr)
        if done.returncode != 0:
            fail("build failed: " + " ".join(cmd), 2)
    return os.path.join(build_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    out_dir = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    # A CMake build tree is tied to the source tree it was configured
    # from, so each checkout gets its own.
    checkout = hashlib.sha256(ROOT.encode()).hexdigest()[:12]
    build_dir = os.path.join(ROOT, out_dir, "perfbench-" + checkout)
    binary = build(build_dir)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        trace_dir = os.path.join(build_dir, "trace")
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace-dir", trace_dir]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish in {RUN_TIMEOUT_S} s", 3)
    lines = done.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        result = None
    if done.returncode != 0 or not isinstance(result, dict):
        # Show the report (it names the failed gate) but keep the result
        # line off standard output.
        sys.stderr.write(done.stdout)
        fail(f"{args.workload} failed (exit {done.returncode})", 1)
    sys.stdout.write(done.stdout)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
