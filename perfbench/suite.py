#!/usr/bin/env python3
"""Run every workload at the default and the held-out seed and print one
table of the end-to-end metrics, with units, and the fail ratio.

    python3 perfbench/suite.py [--seconds 20]

Exit code 1 if any run is not correct.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys

from run import ACCEPTED_SEEDS, ROOT, SPEC


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seconds", type=float, default=20.0)
    args = ap.parse_args()
    rows, all_correct = [], True
    for workload in (w["name"] for w in json.loads(SPEC.read_text())["workloads"]):
        for seed in ACCEPTED_SEEDS:
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=600,
            )
            result = json.loads(proc.stdout.splitlines()[-1]) if proc.stdout else None
            if result is None:
                print(proc.stderr, file=sys.stderr)
                return 1
            all_correct &= result["correct"]
            rows.append((workload, seed, result))
    names = list(rows[0][2]["metrics"])
    header = ["workload", "seed"] + [f"{n} [{rows[0][2]['metrics'][n]['unit']}]" for n in names] + ["fail_ratio"]
    print("  ".join(header))
    for workload, seed, result in rows:
        cells = [workload, str(seed)] + [f"{result['metrics'][n]['value']:.4g}" for n in names]
        cells.append(f"{result['failed'] / result['attempted']:.3g} ({result['failed']}/{result['attempted']})")
        print("  ".join(cells))
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
