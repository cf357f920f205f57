#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload ysb|join|fleet|overload \
        --seed N --seconds S --trace 0|1

Run from the repository root. The first run configures and builds
perfbench/ (which compiles the library sources under src/) into
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that is
unset. Each run is its own process. The last line of standard output is
one JSON object {"correct", "attempted", "failed", "metrics"}; its
metric names and units are checked against BENCHMARK.json. The exit
code is nonzero when the build fails, a check fails or the run times
out, and then no result line is printed unless the run itself printed
one (a failed correctness check prints its result with "correct":
false).
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(os.getcwd(), base)
    return os.path.join(base, "perfbench")


def build():
    """Configure once, then build incrementally; returns the binary."""
    bdir = build_dir()
    quiet = {"stdout": sys.stderr, "stderr": sys.stderr}
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", bdir,
                        "-DCMAKE_BUILD_TYPE=Release"], check=True, **quiet)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", bdir, "--target", "perfbench",
                    "-j", jobs], check=True, **quiet)
    return os.path.join(bdir, "perfbench")


def expected_metrics(trace):
    """{name: unit} the mode must report, from BENCHMARK.json."""
    with open(os.path.join(os.getcwd(), "BENCHMARK.json")) as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 1

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"run.py: {args.workload} did not finish in "
              f"{RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    lines = proc.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        print(lines[-1] if lines else "")
        print("run.py: no result line", file=sys.stderr)
        return proc.returncode or 1

    want = expected_metrics(args.trace == 1)
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        print(f"run.py: metrics differ from BENCHMARK.json: "
              f"missing {sorted(set(want) - set(got))}, "
              f"extra {sorted(set(got) - set(want))}, "
              f"unit mismatches "
              f"{sorted(k for k in got if k in want and got[k] != want[k])}",
              file=sys.stderr)
        return 1
    print(f"result: attempted {result['attempted']}, failed "
          f"{result['failed']} (failed_frac "
          f"{result['failed'] / max(1, result['attempted']):.6g})")
    print(json.dumps(result, separators=(",", ":")))
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
