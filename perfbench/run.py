#!/usr/bin/env python3
"""Builds and runs the SimSpatial benchmark; prints one JSON result line.

Usage, from the repository root:

    python3 perfbench/run.py --workload fig1-plasticity --seed 1 \
        --seconds 30 --trace 0

Workloads: fig1-plasticity, fig1-synapse, serve-zipf (see BENCHMARK.json and
perfbench/README.md). The first call configures and builds perfbench/ (the
library sources under src/ plus simbench) into $CARGO_TARGET_DIR/perfbench,
or .bench_build/perfbench when that is unset; later calls only rebuild what
changed. With --trace 1 the per-layer metrics are reported and the spans are
written next to the build as spans-<workload>.tsv (the latest run's).

The last line of standard output is the result object. The exit code is 0
only when the build succeeded, every oracle check passed and the metrics
match BENCHMARK.json by name and unit.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
RUN_TIMEOUT_S = 170


def build_dir():
    return Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build") / "perfbench"


def build():
    """Configures (once) and builds simbench; returns its path or None."""
    out = build_dir()
    steps = []
    if not (out / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(out), "-j", jobs])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=840)
        except (OSError, subprocess.TimeoutExpired) as err:
            print(f"perfbench: {' '.join(cmd)} failed: {err}", file=sys.stderr)
            return None
        if done.returncode != 0:
            print(f"perfbench: {' '.join(cmd)} exited {done.returncode}",
                  file=sys.stderr)
            return None
    binary = out / "simbench"
    return binary if binary.exists() else None


def git_commit():
    if not Path(".git").exists():
        return "unknown"
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    if done.returncode != 0:
        return "unknown"
    return done.stdout.strip() or "unknown"


def expected_metrics(trace):
    spec = json.loads(Path("BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(result, trace):
    """Returns a list of contract violations in a simbench result."""
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"result keys {sorted(result)}")
        return errors
    want = expected_metrics(trace)
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if got != want:
        errors.append(f"metrics {got} differ from BENCHMARK.json {want}")
    for name, m in result["metrics"].items():
        if not isinstance(m.get("value"), (int, float)):
            errors.append(f"metric {name} has no numeric value")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        errors.append("attempted must be a whole number of at least 1")
    return errors


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["fig1-plasticity", "fig1-synapse", "serve-zipf"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    binary = build()
    if binary is None:
        return 2
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--commit", git_commit()]
    if args.trace:
        cmd += ["--spans", str(build_dir() / f"spans-{args.workload}.tsv")]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: simbench ran past {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3
    lines = done.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        print(done.stdout, end="", file=sys.stderr)
        print(f"perfbench: simbench exited {done.returncode} without a result",
              file=sys.stderr)
        return 3
    errors = check_result(result, args.trace)
    for line in lines[:-1]:
        print(line)
    for err in errors:
        print(f"perfbench: {err}", file=sys.stderr)
    print(json.dumps(result))
    if errors or not result["correct"] or result["failed"] or done.returncode:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
