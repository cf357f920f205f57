#!/usr/bin/env python3
"""Find the src/ lines that no example, figure bench or serve report runs.

    cmake --preset coverage && cmake --build --preset coverage -j
    python3 tools/reachability.py [--build build-coverage] [--extra DIR ...]

Run from the repository root. The script deletes the old .gcda files
in --build and runs, through ctest, the tests that drive whole
programs on their golden inputs: the five example smoke tests, the six
figure shape guards, the fig10 default-policy golden and the serve
report smoke test. CMakeLists.txt is thus the one place their
arguments are set. It then runs `gcov -j` on every .gcda in --build
and in each --extra directory, sums the line counts per src/ file over
every translation unit that compiled the line, and prints each file's
lines that executed 0 times as ranges.

--extra merges another build made with the same flags, e.g. perfbench:

    cmake -S perfbench -B build-coverage-perfbench \\
        -DCMAKE_BUILD_TYPE=Coverage \\
        "-DCMAKE_CXX_FLAGS=-O1 --coverage -fprofile-update=atomic"
    cmake --build build-coverage-perfbench --target perfbench -j
    build-coverage-perfbench/perfbench --workload ysb --seed 7 \\
        --seconds 2 --trace 0
    python3 tools/reachability.py --extra build-coverage-perfbench

Its .gcda files are kept, so run the workloads before the script.

Code that no translation unit instantiates (an unused template, an
inline function nothing calls) has no line record at all, so it never
appears in the report: read the report as "compiled and never run",
not as the complete set of dead code.
"""

import argparse
import concurrent.futures
import glob
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

JOBS = os.cpu_count() or 1

# The ctest cases that run whole programs: examples.*_smoke,
# bench.*_shape_guard, bench.fig10_default_policy_golden and
# bench.serve_report_smoke (not perf_report, whose kernel sweeps reach
# paths no program takes).
RUNS = (r"^(examples[.][a-z_]+_smoke|bench[.][a-z0-9_]+_shape_guard"
        r"|bench[.]fig10_default_policy_golden|bench[.]serve_report_smoke)$")


def run_all(build):
    """Run the RUNS ctest cases in @p build; exit if one fails."""
    res = subprocess.run(["ctest", "--test-dir", build, "-R", RUNS,
                          "-j", str(JOBS), "--no-tests=error",
                          "--output-on-failure"], stdout=sys.stderr)
    if res.returncode != 0:
        sys.exit("ctest failed: reachability needs every run to pass")


def gcov_json(gcda):
    """The JSON report `gcov -j` gives for one .gcda file."""
    res = subprocess.run(["gcov", "-j", "-t", os.path.abspath(gcda)],
                         capture_output=True, text=True, check=True)
    return json.loads(res.stdout)


def line_counts(dirs):
    """{src-relative path: {line: summed count}} over every TU."""
    gcdas = []
    for d in dirs:
        gcdas += glob.glob(os.path.join(d, "**", "*.gcda"), recursive=True)
    if not gcdas:
        sys.exit("no .gcda files: build with the coverage preset and run")
    src = os.path.join(ROOT, "src") + os.sep
    counts = {}
    with concurrent.futures.ThreadPoolExecutor(JOBS) as pool:
        for doc in pool.map(gcov_json, gcdas):
            for f in doc["files"]:
                path = os.path.normpath(os.path.join(
                    doc["current_working_directory"], f["file"]))
                if not path.startswith(src):
                    continue
                per = counts.setdefault(os.path.relpath(path, ROOT), {})
                for ln in f["lines"]:
                    n = ln["line_number"]
                    per[n] = per.get(n, 0) + ln["count"]
    return counts


def ranges(lines):
    """[3, 4, 5, 9] -> "3-5, 9"."""
    out, start, prev = [], None, None
    for n in sorted(lines):
        if start is None:
            start = prev = n
        elif n == prev + 1:
            prev = n
        else:
            out.append(f"{start}" if start == prev else f"{start}-{prev}")
            start = prev = n
    if start is not None:
        out.append(f"{start}" if start == prev else f"{start}-{prev}")
    return ", ".join(out)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--build", default=os.path.join(ROOT, "build-coverage"))
    ap.add_argument("--extra", action="append", default=[])
    opts = ap.parse_args()

    for old in glob.glob(os.path.join(opts.build, "**", "*.gcda"),
                         recursive=True):
        os.remove(old)
    run_all(opts.build)

    counts = line_counts([opts.build] + opts.extra)
    total = dead_total = dead_files = 0
    for path in sorted(counts):
        per = counts[path]
        dead = [n for n, c in per.items() if c == 0]
        total += len(per)
        if dead:
            dead_total += len(dead)
            dead_files += 1
            print(f"{path}: {len(dead)} of {len(per)} lines never ran: "
                  f"{ranges(dead)}")
    print(f"total: {dead_total} of {total} instrumented src/ lines never "
          f"ran, in {dead_files} of {len(counts)} files")


if __name__ == "__main__":
    main()
