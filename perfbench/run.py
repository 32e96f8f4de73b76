#!/usr/bin/env python3
"""Build and run the PowerLens benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --smoke

The first form builds the driver (CMake, Release) into the directory named by
CARGO_TARGET_DIR, or .bench_build, then runs one workload; the last line of
stdout is the driver's result object. Build output goes to stderr.

--smoke runs every workload of BENCHMARK.json briefly, in both trace modes,
and checks that each metric BENCHMARK.json names is printed with its unit,
that no other metric is, and that no output check failed.
"""

import argparse
import fcntl
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# The held-out seed for confirming claims, 9001, is in README.md.
DEFAULT_SEED = 1

# A run must end within 180 s; the driver's own timed sections stop well
# before this.
RUN_TIMEOUT_S = 170


def build_dir():
    return os.path.abspath(
        os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build")))


def build():
    """Configures once, then builds incrementally; returns the binary path."""
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # one build at a time per directory
        steps = []
        if not os.path.exists(os.path.join(out, "Makefile")):
            steps.append(["cmake", "-S", HERE, "-B", out,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", out, "--target", "powerlens_bench",
                      "-j", "4"])
        for cmd in steps:
            if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
                sys.exit("perfbench: build failed: " + " ".join(cmd))
    return os.path.join(out, "powerlens_bench")


def run_driver(binary, workload, seed, seconds, trace, capture=False):
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S, text=True,
                              stdout=subprocess.PIPE if capture else None)
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: {workload} did not finish in {RUN_TIMEOUT_S} s")


def smoke(binary):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {0: spec["end_to_end"], 1: spec["per_layer"]}
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            where = f"{workload} --trace {trace}"
            proc = run_driver(binary, workload, DEFAULT_SEED, 1, trace,
                              capture=True)
            lines = proc.stdout.strip().splitlines()
            try:
                result = json.loads(lines[-1])
            except (IndexError, ValueError):
                problems.append(f"{where}: last line is not a JSON object")
                continue
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{where}: result keys {sorted(result)}")
                continue
            if proc.returncode != 0 or result["correct"] is not True:
                problems.append(f"{where}: exit {proc.returncode}, "
                                f"correct={result['correct']}")
            if result["failed"] != 0 or result["attempted"] < 1:
                problems.append(f"{where}: failed {result['failed']} of "
                                f"{result['attempted']}")
            metrics = result["metrics"]
            names = [m["name"] for m in expected[trace]]
            extra = sorted(set(metrics) - set(names))
            if extra:
                problems.append(f"{where}: unlisted metrics {extra}")
            for m in expected[trace]:
                got = metrics.get(m["name"])
                if got is None:
                    problems.append(f"{where}: missing {m['name']}")
                elif got.get("unit") != m["unit"]:
                    problems.append(f"{where}: {m['name']} unit "
                                    f"{got.get('unit')} != {m['unit']}")
                elif not isinstance(got.get("value"), (int, float)) or \
                        not math.isfinite(got["value"]):
                    problems.append(f"{where}: {m['name']} value "
                                    f"{got.get('value')}")
            print(f"smoke: {where}: {len(metrics)} metrics, "
                  f"{result['attempted']} operations, "
                  f"{result['failed']} failed", file=sys.stderr)
    for p in problems:
        print("smoke: " + p, file=sys.stderr)
    print("smoke: " + ("FAILED" if problems else "ok"), file=sys.stderr)
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="brief self-test of every workload and metric")
    args = parser.parse_args()
    if not args.smoke and not args.workload:
        parser.error("--workload is required")

    binary = build()
    if args.smoke:
        return smoke(binary)
    return run_driver(binary, args.workload, args.seed, args.seconds,
                      args.trace).returncode


if __name__ == "__main__":
    sys.exit(main())
