#!/usr/bin/env python3
"""Build and run the end-to-end benchmark for one workload.

Run from the repository root:

    python3 e2ebench/run.py --workload serve_zipf_read --seed 1 --seconds 20 --trace 0
    python3 e2ebench/run.py --selftest

The driver is built with CMake into $CARGO_TARGET_DIR/e2ebench (default
.bench_build/e2ebench), from the library sources in src/. Workload sizes,
rates and limits come from e2ebench/workloads.json. Stdout's last line is
the result object; it carries exactly the metrics BENCHMARK.json declares
for the trace mode, or the run fails without printing one.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"e2ebench: {msg}", file=sys.stderr)
    return 2


def build(target):
    """Configure once, then build `target`; returns the binary's path."""
    out = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build", "e2ebench")
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", out, "--target", target, "-j", "4"],
                   check=True, stdout=sys.stderr)
    return os.path.join(out, target)


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    return [m["name"] for m in bench["per_layer" if trace else "end_to_end"]]


def check_result(line, trace):
    res = json.loads(line)
    if sorted(res) != ["attempted", "correct", "failed", "metrics"]:
        raise ValueError(f"result keys {sorted(res)}")
    if res["correct"] is not True or res["attempted"] < 1:
        raise ValueError("run not correct or attempted nothing")
    want = declared_metrics(trace)
    if sorted(res["metrics"]) != sorted(want):
        missing = set(want) - set(res["metrics"])
        extra = set(res["metrics"]) - set(want)
        raise ValueError(f"metrics differ from BENCHMARK.json: missing {missing}, extra {extra}")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true", help="build and run the driver's own tests")
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "serve", "router.hpp")):
        return fail("library sources (src/) not found next to e2ebench/")
    try:
        if args.selftest:
            return subprocess.run([build("e2ebench_selftest")]).returncode
        binary = build("e2ebench")
    except (OSError, subprocess.CalledProcessError) as e:
        return fail(f"build failed: {e}")
    if args.workload is None or args.seed is None or args.seconds is None:
        return fail("need --workload, --seed and --seconds")
    with open(os.path.join(HERE, "workloads.json")) as f:
        workloads = json.load(f)["workloads"]
    if args.workload not in workloads:
        return fail(f"unknown workload {args.workload}; have {sorted(workloads)}")

    trace_dir = os.path.join(os.path.dirname(binary), "traces")
    os.makedirs(trace_dir, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--trace-dir", trace_dir]
    for name, value in workloads[args.workload]["params"].items():
        cmd += ["--p", f"{name}={value}"]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return fail(f"driver ran past {RUN_TIMEOUT_S} s")
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout)
        return fail(f"driver exited {proc.returncode}")
    try:
        check_result(lines[-1], args.trace)
    except (ValueError, KeyError) as e:
        sys.stderr.write(proc.stdout)
        return fail(f"bad result line: {e}")
    sys.stdout.write(proc.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
