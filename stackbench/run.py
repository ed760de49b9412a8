#!/usr/bin/env python3
"""Build and run the full-stack benchmark.

    python3 stackbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source tree. The first run configures and builds the
library from src/ together with the benchmark binary (CMake, RelWithDebInfo,
the repository's default build type) into $CARGO_TARGET_DIR/stackbench, or
.bench_build/stackbench when that is unset; later runs only rebuild what
changed. The binary's output is passed through. Its last line is one JSON
object:

    {"correct": true, "attempted": N, "failed": N,
     "metrics": {"<name>": {"value": <number>, "unit": "<unit>"}, ...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json,
with --trace 1 the per-layer ones; a traced run also writes its spans to
<build dir>/trace-<workload>-<seed>.json. This script checks the metric
names and units against BENCHMARK.json and exits non-zero, after the
binary's output, when they disagree, when the build fails, or when the
tree has no library sources to build.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"stackbench: {msg}", file=sys.stderr, flush=True)


def run_quiet(cmd, timeout):
    """Run a build step with its output on stderr; True when it succeeded."""
    try:
        return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout).returncode == 0
    except subprocess.TimeoutExpired:
        log(f"timed out: {' '.join(cmd)}")
        return False


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log(f"no library sources under {os.path.join(ROOT, 'src')}")
        return None
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        if not run_quiet(["cmake", "-S", HERE, "-B", build_dir,
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                         BUILD_TIMEOUT_S):
            return None
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    if not run_quiet(["cmake", "--build", build_dir, "-j", jobs],
                     BUILD_TIMEOUT_S):
        return None
    return os.path.join(build_dir, "stackbench")


def check_result(line, trace):
    """Problems with the result line, as a list of strings."""
    try:
        result = json.loads(line)
    except ValueError:
        return ["last line is not JSON"]
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        return [f"unexpected keys {sorted(result)}"]
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    want = {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}
    got = {k: v.get("unit") for k, v in result["metrics"].items()}
    return [] if got == want else [f"metrics {got} do not match {want}"]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(os.path.abspath(target), "stackbench")
    binary = build(build_dir)
    if binary is None:
        log("build failed")
        return 1

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-out", os.path.join(
            build_dir, f"trace-{args.workload}-{args.seed}.json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{args.workload} did not finish in {RUN_TIMEOUT_S} s")
        return 1
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    if proc.returncode != 0:
        log(f"benchmark exited with {proc.returncode}")
        return 1
    lines = proc.stdout.strip().splitlines()
    problems = check_result(lines[-1] if lines else "", args.trace)
    for p in problems:
        log(p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
