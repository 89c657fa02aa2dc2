#!/usr/bin/env python3
"""Fleet benchmark: build the program from source and run one workload.

Run from the repository root:

    python3 fleetbench/run.py --workload <infer|capture|resume> \
        --seed <n> --seconds <s> --trace <0|1>

The first run in a checkout configures and builds fleetbench/ (a CMake
project over ../src, Release) into $CARGO_TARGET_DIR/fleetbench, default
.bench_build/fleetbench; later runs rebuild incrementally. Build output
goes to stderr. The benchmark's stdout is relayed, and its last line is
the result JSON: {"correct", "attempted", "failed", "metrics"}. With
--trace 1 the span trace is written next to the build, and its path is
printed. The metric names are checked against BENCHMARK.json. The exit
code is nonzero on any failure, and then no result line is printed.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("infer", "capture", "resume")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"fleetbench: {message}", file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    """Configure and build the benchmark binary (incrementally after the
    first run); returns its path."""
    tmp = os.path.join(build_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    # Compiler temporaries stay inside the checkout.
    env = dict(os.environ, TMPDIR=os.path.abspath(tmp))
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "-S", HERE, "-B", build_dir,
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", build_dir, "-j", jobs]]
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  env=env, timeout=BUILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            fail(f"build step timed out: {' '.join(step)}")
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(step)}")
    return os.path.join(build_dir, "fleetbench")


def expected_metrics(trace):
    """Metric names BENCHMARK.json declares for this mode."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as handle:
            spec = json.load(handle)
    except (OSError, ValueError) as error:
        fail(f"cannot read {path}: {error}")
    key = "per_layer" if trace else "end_to_end"
    return {metric["name"]: metric["unit"] for metric in spec[key]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    expected = expected_metrics(args.trace)
    build_dir = os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                             "fleetbench")
    binary = build(build_dir)

    selftest = subprocess.run([binary, "--self-test"], stdout=sys.stderr,
                              stderr=sys.stderr, timeout=60)
    if selftest.returncode != 0:
        fail("self-test of the benchmark arithmetic failed")

    work_dir = os.path.join(build_dir, "work")
    os.makedirs(work_dir, exist_ok=True)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--work-dir", work_dir]
    trace_path = None
    if args.trace:
        trace_dir = os.path.join(build_dir, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        trace_path = os.path.join(trace_dir,
                                  f"{args.workload}-seed{args.seed}.json")
        command += ["--trace-out", trace_path]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"benchmark did not finish within {RUN_TIMEOUT_S} s")

    lines = done.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    if trace_path:
        print(f"trace: {trace_path}")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("the benchmark printed no result line")
    units = {name: metric["unit"] for name, metric in result["metrics"].items()}
    if units != expected:
        missing = sorted(set(expected) - set(units))
        extra = sorted(set(units) - set(expected))
        fail(f"metrics disagree with BENCHMARK.json: missing {missing}, "
             f"unexpected {extra}, or a unit differs")
    if done.returncode != 0 or not result["correct"]:
        fail(f"output checks failed (exit code {done.returncode})")
    print(lines[-1])
    sys.stdout.flush()


if __name__ == "__main__":
    main()
