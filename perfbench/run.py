#!/usr/bin/env python3
"""Builds the V2V benchmark from source and runs one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload pipeline|serve|refresh \
        --seed N --seconds S --trace 0|1

The libraries and the v2v_perfbench binary are built with CMake into
$CARGO_TARGET_DIR (default .bench_build); later runs only re-check the
build. The binary's output is passed through, except that its last line,
the result object {"correct", "attempted", "failed", "metrics"}, is checked
against the metrics BENCHMARK.json declares and printed in their order.
Build output goes to stderr. Exits non-zero, without a result line, when the sources are
missing, the build fails, the run fails its checks or overruns.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

WORKLOADS = ("pipeline", "serve", "refresh")
RUN_TIMEOUT_S = 170  # a run must end within 180 s, build excluded
BUILD_TIMEOUT_S = 850


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def source_digest(root):
    """SHA-256 over the files that make up the benchmarked program."""
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "cmake", "src", "perfbench"):
        path = os.path.join(root, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in sorted(files):
            digest.update(os.path.relpath(name, root).encode())
            with open(name, "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()


def git_sha(root):
    if not os.path.isdir(os.path.join(root, ".git")) or not shutil.which("git"):
        return "none"
    result = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                            capture_output=True, text=True, check=False)
    return result.stdout.strip() or "none"


def complete_metrics(root, outcome, trace):
    """Checks the measured metrics against BENCHMARK.json, the only list of
    metric names and units, and returns them in its order. A per-layer
    metric of a layer the workload does not exercise is added as 0; a
    missing end-to-end metric, an undeclared metric or a wrong unit is an
    error."""
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as handle:
        declared = json.load(handle)["per_layer" if trace else "end_to_end"]
    measured = outcome["metrics"]
    undeclared = sorted(set(measured) - {metric["name"] for metric in declared})
    if undeclared:
        fail(f"undeclared metrics: {', '.join(undeclared)}")
    metrics = {}
    for metric in declared:
        name, unit = metric["name"], metric["unit"]
        value = measured.get(name)
        if value is None:
            if not trace:
                fail(f"end-to-end metric {name} was not measured")
            value = {"value": 0, "unit": unit}
        if value["unit"] != unit:
            fail(f"{name} measured in {value['unit']}, declared in {unit}")
        metrics[name] = value
    return metrics


def build(root, build_dir):
    """Configures once, then builds only the benchmark and its libraries."""
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", os.path.join(root, "perfbench"), "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release", *generator])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", build_dir, "--target", "v2v_perfbench",
                  "-j", jobs])
    for step in steps:
        try:
            result = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                    timeout=BUILD_TIMEOUT_S, check=False)
        except subprocess.TimeoutExpired:
            fail("build timed out")
        if result.returncode != 0:
            fail(f"build step failed: {' '.join(step)}")
    return os.path.join(build_dir, "v2v_perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--corrupt", type=int, default=0, choices=(0, 1),
                        help="corrupt one answer; the run must then fail")
    args = parser.parse_args()

    root = os.getcwd()
    for needed in ("BENCHMARK.json", "CMakeLists.txt", os.path.join("src", "v2v"),
                   os.path.join("perfbench", "CMakeLists.txt")):
        if not os.path.exists(os.path.join(root, needed)):
            fail(f"run from the root of a V2V checkout ({needed} is missing)")
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    binary = build(root, build_dir)

    work_dir = os.path.join(build_dir, "runs",
                            f"{args.workload}-seed{args.seed}-trace{args.trace}")
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--work-dir", work_dir, "--git-sha", git_sha(root),
               "--source-digest", source_digest(root), "--corrupt", str(args.corrupt)]
    try:
        result = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                                timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} run exceeded {RUN_TIMEOUT_S} s")
    lines = result.stdout.rstrip("\n").split("\n")
    try:
        outcome = json.loads(lines[-1])
        valid = set(outcome) == {"correct", "attempted", "failed", "metrics"}
    except json.JSONDecodeError:
        valid = False
    if not valid:
        sys.stderr.write(result.stdout)
        fail(f"{args.workload} run printed no result (exit {result.returncode})")
    outcome["metrics"] = complete_metrics(root, outcome, args.trace)
    sys.stdout.write("".join(line + "\n" for line in lines[:-1]))
    print(json.dumps(outcome), flush=True)
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()
