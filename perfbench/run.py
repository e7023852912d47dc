#!/usr/bin/env python3
"""Host-performance benchmark of recstack.

Run from anywhere; paths are resolved against the repository root:

    python3 perfbench/run.py --workload infer-large --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --selftest

The first call configures and builds perfbench/ (the library from src/
plus the C++ benchmark program) into .bench_build/; later calls rebuild only what
changed. A run prints the host block, one METRIC line per metric with
its unit and sample count, and as its last line one JSON object with
the keys correct, attempted, failed and metrics. perfbench/METRICS.md
describes the workloads and every metric.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
RUN_DIR = os.path.join(ROOT, ".bench_build", "run")
BINARY = os.path.join(BUILD_DIR, "perfbench")
REFERENCE = os.path.join(HERE, "reference", "characterize.txt")
RUN_TIMEOUT_S = 170


def build():
    """Configure once, then build the benchmark program. Build output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no recstack sources at %s" % os.path.join(ROOT, "src"))
    try:
        if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            generator = ["-G", "Ninja"] if shutil.which("ninja") else []
            subprocess.run(["cmake", "-S", HERE, "-B", BUILD_DIR, *generator,
                            "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                           check=True, stdout=sys.stderr)
        jobs = str(min(4, os.cpu_count() or 1))
        subprocess.run(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                        "-j", jobs], check=True, stdout=sys.stderr)
    except (OSError, subprocess.CalledProcessError) as err:
        sys.exit("perfbench: build failed: %s" % err)


def run_program(workload, seed, seconds, trace, extra=()):
    """Run the benchmark program once. Returns (stdout lines, result dict or None, error)."""
    os.makedirs(RUN_DIR, exist_ok=True)
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--run-dir", RUN_DIR, "--reference", REFERENCE, *extra]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return [], None, "benchmark program timed out after %d s" % RUN_TIMEOUT_S
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        return lines, None, "benchmark program exited with code %d" % proc.returncode
    try:
        return lines, json.loads(lines[-1]), None
    except ValueError:
        return lines, None, "benchmark program printed no JSON result"


def selftest():
    """Tiny-size check of the metric contract and of error counting."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    with open(os.path.join(HERE, "METRICS.md")) as f:
        reference_doc = f.read()
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    for names in expected.values():
        for name in names:
            if "`%s`" % name not in reference_doc:
                problems.append("METRICS.md does not describe %s" % name)
    for workload in (w["name"] for w in spec["workloads"]):
        before = len(problems)
        if "`%s`" % workload not in reference_doc:
            problems.append("METRICS.md does not describe workload %s" % workload)
        for trace, names in expected.items():
            lines, result, error = run_program(workload, 1, 1, trace, ["--tiny"])
            where = "%s --trace %d" % (workload, trace)
            if error:
                problems.append("%s: %s" % (where, error))
                continue
            if not result["correct"] or result["failed"] != 0:
                problems.append("%s: %d of %d operations failed"
                                % (where, result["failed"], result["attempted"]))
            got = result["metrics"]
            if set(got) != set(names):
                problems.append("%s: metrics %s, expected %s"
                                % (where, sorted(got), sorted(names)))
            for name, unit in names.items():
                metric = got.get(name, {})
                if metric.get("unit") != unit:
                    problems.append("%s: %s has unit %r, expected %r"
                                    % (where, name, metric.get("unit"), unit))
                if not any(line.split()[:2] == ["METRIC", name]
                           and unit in line.split() for line in lines):
                    problems.append("%s: no METRIC line for %s [%s]"
                                    % (where, name, unit))
        _, result, error = run_program(workload, 1, 1, 0, ["--tiny", "--corrupt"])
        if error or result["correct"] or result["failed"] < 1:
            problems.append("%s: a corrupted output was not counted as failed"
                            % workload)
        print("selftest %-14s %s" % (workload, "ok" if len(problems) == before else "FAILED"))
    for problem in problems:
        print("SELFTEST FAILED: %s" % problem)
    print("selftest %s" % ("passed" if not problems else "failed"))
    return 0 if not problems else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--selftest", action="store_true",
                        help="tiny-size check of every metric and of error counting")
    args = parser.parse_args()
    if not args.selftest and None in (args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")

    build()
    if args.selftest:
        return selftest()
    lines, _, error = run_program(args.workload, args.seed, args.seconds, args.trace)
    for line in lines:
        print(line)
    if error:
        # A run that dies is one failed operation, and has no metrics.
        print("perfbench: %s" % error, file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
