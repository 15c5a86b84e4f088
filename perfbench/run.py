#!/usr/bin/env python3
"""Builds the locwm benchmark driver from source and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run from the root of a checkout.  The driver is built with CMake under
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); the first
run builds, later runs only relink when a source changed.  The last line
of standard output is the result object; the line before it is the
provenance row.  --smoke runs every workload at toy sizes in both trace
modes and checks that each metric BENCHMARK.json names is printed once,
with its unit.  See perfbench/README.md.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("mpeg2_roundtrip", "workspace_lint")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def target_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = Path.cwd() / target
    target = target / "perfbench"
    # Compiler and driver temporaries stay inside the checkout too.
    (target / "tmp").mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(target / "tmp")
    return target


def build(target):
    """Configures (once) and builds the driver; returns the binary path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no locwm sources under {ROOT / 'src'}")
    build_dir = target / "build"
    log_path = target / "build.log"
    jobs = str(min(4, os.cpu_count() or 1))
    configure = ["cmake", "-S", str(HERE), "-B", str(build_dir),
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not (build_dir / "Makefile").exists():
        configure += ["-G", "Ninja"]
    steps = [configure,
             ["cmake", "--build", str(build_dir), "--target", "locwm_perfbench",
              "-j", jobs]]
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT).returncode:
                sys.stderr.write(log_path.read_text()[-4000:])
                fail(f"build failed (log: {log_path})")
    return build_dir / "locwm_perfbench"


def git_describe():
    if not (ROOT / ".git").exists():
        return "unknown"
    out = subprocess.run(["git", "-C", str(ROOT), "describe", "--always", "--dirty",
                          "--tags"], capture_output=True, text=True)
    return out.stdout.strip() or "unknown"


def run_driver(binary, target, workload, seed, seconds, trace, smoke=False):
    """Runs the driver once; returns (stdout lines, parsed result)."""
    work = target / "work"
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--work", str(work),
           "--git-describe", git_describe()]
    if smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload}: driver exceeded {RUN_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"{workload}: driver exited with {proc.returncode}")
    result = json.loads(lines[-1])
    if set(result) != RESULT_KEYS:
        fail(f"{workload}: result keys {sorted(result)}")
    return lines, result


def smoke(binary, target):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            _, result = run_driver(binary, target, workload, 1, 1, trace, smoke=True)
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = result["metrics"]
            if set(got) != set(want):
                fail(f"smoke {workload} trace {trace}: missing "
                     f"{sorted(set(want) - set(got))}, extra {sorted(set(got) - set(want))}")
            for name, unit in want.items():
                if got[name].get("unit") != unit:
                    fail(f"smoke {workload}: {name} has unit {got[name].get('unit')}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                fail(f"smoke {workload} trace {trace}: {result['failed']} of "
                     f"{result['attempted']} operations failed")
            print(f"smoke {workload} trace {trace}: {len(got)} metrics ok")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if not args.smoke and args.workload is None:
        parser.error("--workload is required")

    target = target_dir()
    binary = build(target)
    if args.smoke:
        smoke(binary, target)
        return
    lines, _ = run_driver(binary, target, args.workload, args.seed, args.seconds,
                          args.trace)
    print("\n".join(lines), flush=True)


if __name__ == "__main__":
    main()
