#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

Usage (from the repository root):

  python3 perfbench/run.py --workload fleet_read --seed 1 --seconds 20 --trace 0

Builds perfbench/ (which compiles the library from ../src) into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench, then runs the
benchmark binary in a scratch directory under the build directory and
removes that directory afterwards. Build output goes to stderr; the last
line of stdout is the benchmark's JSON result. Exits non-zero, without a
result, when the library sources are missing or the build fails.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("fleet_read", "stream_publish")
RUN_TIMEOUT_S = 170


def build(build_dir):
    for needed in ("src", "include"):
        if not os.path.isdir(os.path.join(ROOT, needed)):
            print(f"perfbench: {needed}/ not found next to perfbench/",
                  file=sys.stderr)
            sys.exit(2)
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs,
                    "--target", "perfbench"], stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target, "perfbench")
    try:
        binary = build(build_dir)
    except (subprocess.CalledProcessError, OSError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 2

    # Relative to the root: shard socket paths must stay short.
    workdir = os.path.relpath(os.path.join(build_dir, f"run-{os.getpid()}"),
                              ROOT)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--workdir", workdir]
    # Its own session, so a run that overstays can be killed together with
    # the shard processes it forked.
    child = subprocess.Popen(command, cwd=ROOT, start_new_session=True)
    try:
        code = child.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()
        print("perfbench: run timed out", file=sys.stderr)
        code = 3
    try:  # stragglers of a run that died without stopping its shards
        os.killpg(child.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    shutil.rmtree(os.path.join(ROOT, workdir), ignore_errors=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
