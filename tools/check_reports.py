#!/usr/bin/env python3
"""Check that the committed BENCH reports match what their emitters write.

    python3 tools/check_reports.py \\
        --serve BENCH_serve.json <serve_report --smoke output> \\
        --kernels BENCH_kernels.json <perf_report --smoke output>

The serving report is compared by key path: every object key, named by
the keys above it joined with "." and with "[]" for an array element
(so "failover_sweep[].records_replayed"). The smoke sweep is smaller
than the committed full one, but both write the same paths. The kernel
report is compared by the "name" of each row of "benchmarks". Every
path or name found on one side only is printed, and any difference
exits 1. The ctest bench.committed_reports_match_emitters runs this on
the outputs of bench.serve_report_smoke and bench.perf_report_smoke.
"""

import argparse
import json
import sys


def key_paths(node, prefix=""):
    """Every object key path under @p node."""
    paths = set()
    if isinstance(node, dict):
        for key, value in node.items():
            path = f"{prefix}.{key}" if prefix else key
            paths.add(path)
            paths |= key_paths(value, path)
    elif isinstance(node, list):
        for value in node:
            paths |= key_paths(value, prefix + "[]")
    return paths


def row_names(report):
    return {row["name"] for row in report.get("benchmarks", [])}


def compare(what, committed, emitted):
    """Print the differences of two sets; True when they are equal."""
    for item in sorted(committed - emitted):
        print(f"{what}: committed only: {item}")
    for item in sorted(emitted - committed):
        print(f"{what}: emitted only: {item}")
    print(f"{what}: {len(committed)} committed, {len(emitted)} emitted")
    return committed == emitted


def load(path):
    with open(path) as f:
        return json.load(f)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--serve", nargs=2, required=True,
                    metavar=("COMMITTED", "EMITTED"))
    ap.add_argument("--kernels", nargs=2, required=True,
                    metavar=("COMMITTED", "EMITTED"))
    args = ap.parse_args()

    ok = compare("serve key paths",
                 key_paths(load(args.serve[0])),
                 key_paths(load(args.serve[1])))
    ok = compare("kernel row names",
                 row_names(load(args.kernels[0])),
                 row_names(load(args.kernels[1]))) and ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
