#!/usr/bin/env python3
"""End-to-end Apply benchmark: build bench_e2e from source, run one workload.

    python3 perf_e2e/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The first call configures and builds the
repository's libraries plus bench_e2e (perf_e2e/CMakeLists.txt) into
.bench_build/ at the checkout root; later calls rebuild incrementally.
Build output goes to stderr. bench_e2e's own lines are passed through and
the last stdout line is its JSON result, checked here against the metric
names BENCHMARK.json declares. Any failure exits non-zero without a result.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perf_e2e")
BINARY = os.path.join(BUILD, "bench_e2e")
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perf_e2e: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("repository sources (src/) not found next to perf_e2e/")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr, timeout=300).returncode:
            fail("cmake configure failed")
    jobs = str(min(2, os.cpu_count() or 1))
    make = ["cmake", "--build", BUILD, "--target", "bench_e2e", "-j", jobs]
    if subprocess.run(make, stdout=sys.stderr, timeout=800).returncode:
        fail("build failed")


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")
    expected = expected_metrics(args.trace)

    build()
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        fail(f"bench_e2e exceeded {RUN_TIMEOUT_S} s")
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        fail(f"bench_e2e exited with code {proc.returncode}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail("bench_e2e printed no JSON result")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("result keys differ from the contract")
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if got != expected:
        fail(f"metrics differ from BENCHMARK.json: {sorted(set(got) ^ set(expected))}")
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
