#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload litmus-modes --seed 780741 \
        --seconds 35 --trace 0

The first run configures and builds perfbench/CMakeLists.txt (the
simulator library from src/ plus the fa_perfbench program) into
$CARGO_TARGET_DIR, or .bench_build when that is unset; later runs only
rebuild what changed. fa_perfbench's `name value unit` lines are passed
through, and the last line printed is one JSON object holding the
correctness verdict and the metrics BENCHMARK.json names for the mode:
its end_to_end metrics with --trace 0, its per_layer metrics with
--trace 1. Exits non-zero, without that line, when the build fails or
fa_perfbench cannot run; exits non-zero after it when an output is
wrong.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("litmus-modes", "fig14-sweep", "analysis-judges")
DEFAULT_SEED = 0xBE9C5  # the fig14 campaign's own seed
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build():
    """Configure once, then build incrementally. Returns the program."""
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (out / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "--target", "fa_perfbench",
                  "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr; stdout carries only results.
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if proc.returncode:
            log("build failed: " + " ".join(cmd))
            return None
    return out / "fa_perfbench"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny sizes, for the benchmark's own test")
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = [m["name"] for m in
              spec["per_layer" if args.trace else "end_to_end"]]

    program = build()
    if program is None:
        return 3
    cmd = [str(program), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        # subprocess.run kills fa_perfbench and waits for it.
        log(f"fa_perfbench exceeded {RUN_TIMEOUT_S} s")
        return 4

    lines = proc.stdout.splitlines()
    try:
        verdict = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        sys.stdout.write(proc.stdout)
        log(f"fa_perfbench printed no verdict (exit {proc.returncode})")
        return proc.returncode or 5
    for line in lines[:-1]:
        print(line)

    metrics = verdict["metrics"]
    missing = [name for name in wanted if name not in metrics]
    if missing:
        log("fa_perfbench did not report: " + ", ".join(missing))
        verdict["correct"] = False
    result = {
        "correct": verdict["correct"],
        "attempted": verdict["attempted"],
        "failed": verdict["failed"],
        "metrics": {name: metrics[name] for name in wanted
                    if name in metrics},
    }
    print(json.dumps(result), flush=True)
    if proc.returncode:
        return proc.returncode
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
