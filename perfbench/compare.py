#!/usr/bin/env python3
"""Compares two benchmark result rows.

    python3 perfbench/compare.py BASE_ROW.json NEW_ROW.json

A row is the file the driver writes next to its work files
(row-seed<N>-trace<T>.json: provenance plus result).  Two rows are
comparable only when they ran the same workload on the same generated
inputs (inputs_sha256) with the same rt pool size and the same number of
usable CPUs; otherwise the script prints "not comparable" with the reason
and exits 1.  For comparable rows it prints each metric's relative change.
"""
import json
import sys


def load(path):
    with open(path) as f:
        row = json.load(f)
    return row["provenance"], row["result"]


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    (pa, ra), (pb, rb) = load(sys.argv[1]), load(sys.argv[2])
    reasons = [f"{key} differs: {pa.get(key)} vs {pb.get(key)}"
               for key in ("workload", "trace", "inputs_sha256", "threads", "usable_cpus")
               if pa.get(key) != pb.get(key)]
    if reasons:
        print("not comparable: " + "; ".join(reasons))
        sys.exit(1)
    for other in ("cpu_model", "compiler", "build_type", "cache_fs"):
        if pa.get(other) != pb.get(other):
            print(f"note: {other} differs: {pa.get(other)} vs {pb.get(other)}")
    print(f"{'metric':40} {'base':>14} {'new':>14} {'change':>8}")
    for name, base in ra["metrics"].items():
        new = rb["metrics"].get(name, {}).get("value")
        if new is None:
            continue
        b = base["value"]
        change = f"{100.0 * (new - b) / b:+.1f}%" if b else "n/a"
        print(f"{name:40} {b:14.6g} {new:14.6g} {change:>8}")


if __name__ == "__main__":
    main()
