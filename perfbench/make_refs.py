#!/usr/bin/env python3
"""Write refs/seed_digests.json: digests of each workload's outputs at the
accepted seeds (the default seed and one held-out seed), at full size.

    python3 perfbench/make_refs.py

The committed file was generated from the package as it stood when the
benchmark was added, after each output had passed the oracle check. Later
code must reproduce it, so regenerate it only to add a workload or a seed,
and from that same code.
"""

from __future__ import annotations

import json
import sys

import run


def main() -> int:
    run.cap_threads()
    workloads = run.load_workloads()
    digests: dict = {}
    for name, wl in workloads.WORKLOADS.items():
        for seed in run.ACCEPTED_SEEDS:
            inputs = wl.setup(seed, "full")
            outputs = wl.op(inputs)
            bad = run.check(outputs, wl.reference(inputs), None, workloads.is_exact)
            if bad:
                print(f"{name} seed {seed}: outputs disagree with the oracle: {bad}", file=sys.stderr)
                return 1
            digests.setdefault(name, {})[str(seed)] = {
                out: run.digest(value, workloads.is_exact(out)) for out, value in outputs.items()
            }
            print(f"{name} seed {seed}: {len(outputs)} outputs")
    run.DIGESTS.parent.mkdir(exist_ok=True)
    run.DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
