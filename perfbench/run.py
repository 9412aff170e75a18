#!/usr/bin/env python3
"""The repository benchmark: builds gqld and the gqlbench client from source,
then runs one workload (or all of them).

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds N --trace 0|1
    python3 perfbench/run.py --workload all [--seed N] [--seconds N]
    python3 perfbench/run.py --self-test

Workloads: serve_small, match_prune, match_search, write_durable (see
perfbench/README.md). With --trace 0 the last line of standard output is a
JSON object with the end-to-end metrics; with --trace 1 it carries the
per-layer metrics of a traced replay. `--workload all` runs every workload
untraced and traced and ends with one combined JSON line.

Run from the root of a checkout. Builds go to .bench_build/ there.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ["serve_small", "match_prune", "match_search", "write_durable"]


def log(message):
    print(f"run.py: {message}", file=sys.stderr, flush=True)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log(f"no repository sources under {ROOT}/src; nothing to benchmark")
        sys.exit(2)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            log("cmake configure failed")
            sys.exit(1)
    cmd = ["cmake", "--build", BUILD, "-j", "4", "--target", "gqld",
           "gqlbench"]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        log("build failed")
        sys.exit(1)


def gqlbench_cmd(extra):
    return [os.path.join(BUILD, "gqlbench"),
            "--gqld", os.path.join(BUILD, "gqld"),
            "--workdir", os.path.join(BUILD, "work")] + extra


def run_one(workload, seed, seconds, trace, capture=False):
    os.makedirs(os.path.join(BUILD, "work"), exist_ok=True)
    extra = ["--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        extra += ["--trace-file",
                  os.path.join(BUILD, f"trace-{workload}.json")]
    if not capture:
        return subprocess.run(gqlbench_cmd(extra)).returncode, None
    proc = subprocess.run(gqlbench_cmd(extra), stdout=subprocess.PIPE,
                          text=True)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    return proc.returncode, result


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    build()
    if args.self_test:
        os.makedirs(os.path.join(BUILD, "work"), exist_ok=True)
        sys.exit(subprocess.run(gqlbench_cmd(["--self-test"])).returncode)
    if args.workload is None:
        parser.error("--workload is required")
    if args.workload != "all":
        if args.workload not in WORKLOADS:
            parser.error(f"unknown workload {args.workload}")
        code, _ = run_one(args.workload, args.seed, args.seconds, args.trace)
        sys.exit(code)

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        for trace in (0, 1):
            code, result = run_one(workload, args.seed, args.seconds, trace,
                                   capture=True)
            if code != 0 or result is None:
                log(f"{workload} (trace {trace}) failed with code {code}")
                sys.exit(code or 1)
            combined["correct"] &= result["correct"]
            if trace == 0:
                combined["attempted"] += result["attempted"]
                combined["failed"] += result["failed"]
            for name, metric in result["metrics"].items():
                combined["metrics"][f"{workload}/{name}"] = metric
    print(json.dumps(combined))


if __name__ == "__main__":
    main()
