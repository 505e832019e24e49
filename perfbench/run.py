#!/usr/bin/env python3
"""Run one workload of the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root.  Builds the program and the benchmark
program, tmlbench, from source into .bench_build/perfbench (incrementally
after the first run), runs one workload, and prints as its last line one
JSON object with the keys correct, attempted, failed and metrics: the
end-to-end metrics of BENCHMARK.json for --trace 0, the per-layer metrics
for --trace 1.  A traced run also prints how far its end-to-end figures
lie from the untraced runs recorded in the same build directory (the
tracing overhead).
"""

import argparse
import fcntl
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(".bench_build", "perfbench")  # relative to ROOT
RUN_DIR = os.path.join(BUILD, "run")
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    build_dir = os.path.join(ROOT, BUILD)
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    with open(os.path.join(build_dir, "build.lock"), "w") as lock, \
            open(log_path, "w") as log:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = [
            ["cmake", "-S", HERE, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            ["cmake", "--build", build_dir, "-j4", "--target",
             "tmlbench", "tycd"],
        ]
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                fail("build failed: " + " ".join(cmd))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload " + args.workload)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    build()
    os.makedirs(os.path.join(ROOT, RUN_DIR), exist_ok=True)
    # Relative paths keep tycd's Unix socket path short.
    cmd = [os.path.join(BUILD, "tmlbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out", RUN_DIR, "--bin", BUILD]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("tmlbench did not finish within %d s" % RUN_TIMEOUT_S)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        fail("tmlbench exited with code %d" % proc.returncode)
    for line in lines[:-1]:
        print(line)
    result = json.loads(lines[-1])
    e2e = {}
    for line in lines:
        if line.startswith("e2e: "):
            e2e = json.loads(line[len("e2e: "):])

    missing = [m["name"] for m in wanted if m["name"] not in result["metrics"]]
    if missing and result["correct"]:
        fail("metrics not measured: " + ", ".join(missing))
    metrics = {}
    for m in wanted:
        got = result["metrics"].get(m["name"], {"value": 0})
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}

    history = os.path.join(ROOT, BUILD, "untraced-%s.jsonl" % args.workload)
    if not args.trace:
        with open(history, "a") as f:
            f.write(json.dumps(e2e) + "\n")
    else:
        report_overhead(history, e2e)

    print(json.dumps({"correct": bool(result["correct"]),
                      "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]),
                      "metrics": metrics}))


def report_overhead(history, traced):
    """Print the traced run's end-to-end figures against the median of the
    untraced runs of the same workload recorded in this build directory."""
    runs = []
    if os.path.exists(history):
        with open(history) as f:
            runs = [json.loads(line) for line in f if line.strip()]
    if not runs:
        print("trace overhead: no untraced run of this workload recorded yet")
        return
    for name in sorted(traced):
        base = [r[name]["value"] for r in runs if name in r]
        if not base:
            continue
        med = statistics.median(base)
        if med:
            print("trace overhead: %s traced %.6g vs untraced median %.6g "
                  "(%+.1f%%, %d untraced runs)"
                  % (name, traced[name]["value"], med,
                     100.0 * (traced[name]["value"] / med - 1), len(base)))


if __name__ == "__main__":
    main()
