#!/usr/bin/env python3
"""Smoke test of the benchmark: every workload at tiny n, in seconds.

Run from the repository root:

    python3 perfbench/smoke_test.py

It builds simbench the way perfbench/run.py does, then runs each workload
untraced and traced at n=20000 and asserts that every end-to-end and
per-layer metric in BENCHMARK.json is emitted with its unit, that no op
failed (fail_ratio == 0), and that the counts documented as exact
(datagen.moved_per_step, core.range_results_per_step, join.pairs_per_step)
repeat across two traced runs at one seed. Exits nonzero on any failure.
"""

import json
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

EXACT_COUNTS = ("datagen.moved_per_step", "core.range_results_per_step",
                "join.pairs_per_step")


def simbench(binary, workload, trace, spans_dir):
    cmd = [str(binary), "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace), "--n", "20000"]
    if trace:
        cmd += ["--spans", str(Path(spans_dir) / f"{workload}.tsv")]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=170)
    result = json.loads(done.stdout.rstrip("\n").split("\n")[-1])
    return done.returncode, result


def main():
    binary = run.build()
    if binary is None:
        print("FAIL: build")
        return 1
    workloads = [w["name"] for w in json.loads(Path("BENCHMARK.json").read_text())["workloads"]]
    failures = []
    with tempfile.TemporaryDirectory(dir=run.build_dir()) as spans_dir:
        for workload in workloads:
            traced = []
            for trace in (0, 1, 1):
                code, result = simbench(binary, workload, trace, spans_dir)
                tag = f"{workload} trace={trace}"
                for err in run.check_result(result, trace):
                    failures.append(f"{tag}: {err}")
                if code != 0 or not result["correct"] or result["failed"] != 0:
                    failures.append(f"{tag}: exit {code}, correct "
                                    f"{result['correct']}, failed {result['failed']}")
                if trace:
                    traced.append(result["metrics"])
                print(f"{tag}: attempted {result['attempted']}, "
                      f"failed {result['failed']}")
            for name in EXACT_COUNTS:
                values = [m[name]["value"] for m in traced]
                if values[0] != values[1]:
                    failures.append(f"{workload}: {name} differs between "
                                    f"runs at one seed: {values}")
    for failure in failures:
        print(f"FAIL: {failure}")
    print("smoke test", "failed" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
