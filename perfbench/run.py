#!/usr/bin/env python3
"""Runs the repository benchmark.

    python3 perfbench/run.py --workload decide|evaluate|serve|all \
        --seed N --seconds S --trace 0|1

Builds the benchmark binary and vqdr-serve from this checkout's sources
(Release, into .bench_build/), runs one workload and prints its metrics as one JSON
object on the last line of stdout. `--workload all` runs the three
workloads in turn, prints a table of their metrics and, last, one JSON
object whose metric names carry the workload as a prefix.

Exit code 0 only when the build and every run succeeded; build output and
diagnostics go to stderr.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(".bench_build", "perfbench")
WORK = os.path.join(".bench_build", "run")
WORKLOADS = ("serve", "decide", "evaluate")
RUN_TIMEOUT_S = 170


def build():
    """Configures and builds the benchmark binary and vqdr-serve."""
    rc = subprocess.call(
        ["cmake", "-S", "perfbench", "-B", BUILD,
         "-DCMAKE_BUILD_TYPE=Release"],
        stdout=sys.stderr, stderr=sys.stderr)
    if rc != 0:
        return False
    rc = subprocess.call(
        ["cmake", "--build", BUILD, "--target", "perfbench_bench",
         "-j", "4"],
        stdout=sys.stderr, stderr=sys.stderr)
    return rc == 0


def run_one(workload, seed, seconds, trace):
    """Runs the benchmark binary once; returns the parsed result or None."""
    cmd = [os.path.join(BUILD, "perfbench_bench"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--work-dir", WORK,
           "--server", os.path.join(BUILD, "vqdr", "src", "svc", "vqdr-serve")]
    # Its own process group, so a timeout also stops the vqdr-serve children.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        print(f"{workload}: timed out", file=sys.stderr)
        return None
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"{workload}: benchmark binary exited {proc.returncode}",
              file=sys.stderr)
        return None
    return json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    os.chdir(ROOT)
    if not build():
        print("build failed", file=sys.stderr)
        return 1
    os.makedirs(WORK, exist_ok=True)

    if args.workload != "all":
        result = run_one(args.workload, args.seed, args.seconds, args.trace)
        if result is None:
            return 1
        print(json.dumps(result))
        return 0

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        result = run_one(workload, args.seed, args.seconds, args.trace)
        if result is None:
            return 1
        print(f"{workload}: attempted={result['attempted']} "
              f"failed={result['failed']} correct={result['correct']}")
        for name, metric in result["metrics"].items():
            print(f"  {name:34s} {metric['value']:16.6g} {metric['unit']}")
            combined["metrics"][f"{workload}.{name}"] = metric
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
