#!/usr/bin/env python3
"""Repository benchmark: open-loop travel workloads against youtopia_server.

Usage (from the repository root):

    python3 perfbench/run.py --workload browse|book|coordinate \
        --seed N --seconds S --trace 0|1

Builds youtopia_server and the load driver from this source tree into
.bench_build/perfbench on first use, then runs one measurement. Every
rate, size and server flag comes from perfbench/config.json. With
--trace 0 the driver reports the end-to-end metrics of a real server;
with --trace 1 the per-layer metrics of the traced run. The last line
of standard output is the JSON result; the exit code is non-zero when a
check fails.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
WORK_DIR = os.path.join(ROOT, ".bench_build", "perfbench-run")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def run_logged(cmd, log_path, timeout):
    with open(log_path, "ab") as log:
        try:
            return subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                  timeout=timeout).returncode
        except subprocess.TimeoutExpired:
            return -1


def build(deadline):
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(ROOT, "src")):
        fail("no youtopia source tree next to perfbench/")
    os.makedirs(BUILD_DIR, exist_ok=True)
    log = os.path.join(ROOT, ".bench_build", "perfbench-build.log")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        rc = run_logged(["cmake", "-S", HERE, "-B", BUILD_DIR,
                         "-DCMAKE_BUILD_TYPE=Release"], log,
                        max(1, deadline - time.monotonic()))
        if rc != 0:
            fail(f"configure failed (see {log})")
    jobs = str(min(4, os.cpu_count() or 1))
    rc = run_logged(["cmake", "--build", BUILD_DIR, "-j", jobs, "--target",
                     "youtopia_server", "perfbench_driver"], log,
                    max(1, deadline - time.monotonic()))
    if rc != 0:
        fail(f"build failed (see {log})")


def driver_args(config, args):
    common = config["common"]
    workload = config["workloads"][args.workload]
    flags = {}
    for section in (common, workload):
        for key, value in section.items():
            if key == "why":
                continue
            if isinstance(value, list):
                value = ",".join(str(v) for v in value)
            flags[key] = value
    flags.update({
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "server_bin": os.path.join(BUILD_DIR, "youtopia", "youtopia_server"),
        "work_dir": WORK_DIR,
    })
    return [f"--{key}={value}" for key, value in flags.items()]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    start = time.monotonic()
    with open(os.path.join(HERE, "config.json")) as f:
        config = json.load(f)
    if args.workload not in config["workloads"]:
        fail(f"unknown workload {args.workload!r}")
    build(start + BUILD_TIMEOUT_S)

    cmd = [os.path.join(BUILD_DIR, "perfbench_driver")] + \
        driver_args(config, args)
    proc = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True)
    try:
        rc = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        # The driver's servers die with it (parent-death signal).
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"run exceeded {RUN_TIMEOUT_S}s")
    sys.exit(rc)


if __name__ == "__main__":
    main()
