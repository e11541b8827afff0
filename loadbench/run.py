#!/usr/bin/env python3
"""Builds and runs the cyclerankd load benchmark.

Run from the root of a CycleRank checkout:

    python3 loadbench/run.py --workload catalog-hot --seed 1 --seconds 20 --trace 0

Configures loadbench/CMakeLists.txt (the library, `cyclerankd` and the
`loadgen` load generator) in a Release build under $CARGO_TARGET_DIR (default
.bench_build), builds it, and runs `loadgen`, whose last stdout line is the
result JSON. Build output goes to stderr. `--selftest` builds and runs the
harness unit tests instead. Exits non-zero when the build fails, a result
is wrong, or the run is invalid.
"""

import argparse
import os
import signal
import subprocess
import sys
import time

WORKLOADS = ("catalog-hot", "upload-cold", "upload-churn")
RUN_TIMEOUT_S = 170


def build(source, build_dir, targets):
    jobs = str(os.cpu_count() or 1)
    steps = [
        ["cmake", "-S", source, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "-j", jobs, "--target"] + targets,
    ]
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            print("run.py: build step failed: " + " ".join(cmd), file=sys.stderr)
            return False
    return True


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")

    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    target_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(root, target_root, "loadbench")

    if args.selftest:
        if not build(here, build_dir, ["harness_test"]):
            return 2
        return subprocess.run([os.path.join(build_dir, "harness_test")]).returncode

    if not build(here, build_dir, ["loadgen"]):
        return 2
    workdir = os.path.join(root, target_root, "work", args.workload)
    cmd = [
        os.path.join(build_dir, "loadgen"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--daemon", os.path.join(build_dir, "cyclerank", "cyclerankd"),
        "--workdir", workdir,
    ]
    # loadgen and the daemons it spawns share a fresh process group, so a
    # hung or crashed run never leaves a daemon behind.
    proc = subprocess.Popen(cmd, start_new_session=True)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("run.py: loadgen timed out", file=sys.stderr)
        code = 2
    stop_group(proc)
    return code


def stop_group(proc):
    """Kills whatever is left of the run's process group and waits for it."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


if __name__ == "__main__":
    sys.exit(main())
