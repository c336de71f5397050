#!/usr/bin/env python3
"""Self-test of the benchmark at tiny sizes (about a minute).

    python3 perfbench/selftest.py

For each workload it runs one steady op untraced and traced, and checks
that the result line carries exactly the metrics BENCHMARK.json names,
that every per-layer metric is measured on some workload, that
`--inject-fault` makes every output check fail, and that the benchmark
refuses to run in a directory without the package source.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"


def run(args: list[str], cwd: Path = ROOT) -> tuple[int, dict | None, str]:
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc.returncode, result, proc.stdout + proc.stderr


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {0: [m["name"] for m in spec["end_to_end"]], 1: [m["name"] for m in spec["per_layer"]]}
    errors: list[str] = []
    measured: set[str] = set()
    for workload in (w["name"] for w in spec["workloads"]):
        base = ["--workload", workload, "--seed", "0", "--seconds", "0", "--size", "tiny"]
        for trace in (0, 1):
            code, result, log = run(base + ["--trace", str(trace)])
            if code != 0 or result is None or not result["correct"] or result["failed"]:
                errors.append(f"{workload} trace {trace}: run failed\n{log[-1500:]}")
                continue
            if list(result["metrics"]) != expected[trace]:
                errors.append(f"{workload} trace {trace}: metrics {list(result['metrics'])} != BENCHMARK.json")
            if trace:
                report = json.loads((OUT / f"{workload}-seed0-trace1.json").read_text())
                measured |= set(result["metrics"]) - set(report["not_measured"])

        code, result, log = run(base + ["--trace", "0", "--inject-fault"])
        report = json.loads((OUT / f"{workload}-seed0-trace0.json").read_text())
        every_output = "output check failed for " + ", ".join(report["checked_outputs"])
        caught = [f for f in report["failures"] if f.endswith(every_output)]
        if code == 0 or result is None or result["correct"] or not report["checked_outputs"] \
                or not result["attempted"] == result["failed"] == len(caught):
            errors.append(f"{workload}: fault injection was not caught\n{log[-1500:]}")

    unmeasured = set(expected[1]) - measured
    if unmeasured:
        errors.append(f"per-layer metrics measured on no workload: {sorted(unmeasured)}")

    bare = OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    code, result, log = run(["--workload", "quant_matmul", "--seed", "0", "--seconds", "1", "--trace", "0"], cwd=bare)
    shutil.rmtree(bare)
    if code == 0 or result is not None:
        errors.append(f"run without the package source did not fail\n{log[-1500:]}")

    for error in errors:
        print(f"FAIL {error}")
    print("selftest: " + ("FAIL" if errors else "PASS"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
