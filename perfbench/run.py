#!/usr/bin/env python3
"""Run one benchmark workload: one client, closed loop, one seed.

    python3 perfbench/run.py --workload prefill_hybrid --seed 0 --seconds 20 --trace 0

Run it from the root of a source checkout: the package is imported from
that checkout's `src/`, and the run fails (no result, exit code 1) when it
is not there. BLAS threads are capped at the number of usable cores before
numpy loads. Workloads are described in perfbench/NOTES.md.

Each op's outputs are checked, outside the timed interval, against
`oracle.py` for any seed, and against digests of the seed code's outputs
(`refs/seed_digests.json`) for the accepted seeds. `--inject-fault`
perturbs every output before the check, which must then fail.

Times are scaled to a reference machine speed: a fixed calibration kernel
that uses no package code runs after every op, for a tenth of the op's
time, and the wall times of a loop's ops are multiplied by CAL_REF_S over
the median calibration time of that loop. The speed of a shared virtual
machine drifts by tens of percent over minutes; the scaled times follow
the code, not the drift. Wall times are printed and recorded too.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. With `--trace 0` the
metrics are the end-to-end ones; with `--trace 1` the run spends a third
of its time untraced, a third with only the four attention mechanisms
wrapped and a third fully traced, and the metrics are the per-layer ones
(perlayer.py). Metric names and units are read from BENCHMARK.json. The run
record, metrics and, when traced, every span go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

# numpy is imported inside functions: it must load after cap_threads() has
# set the BLAS thread variables.

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
DIGESTS = HERE / "refs" / "seed_digests.json"
SPEC = ROOT / "BENCHMARK.json"
DEFAULT_SEED, HELD_OUT_SEED = 0, 1009
ACCEPTED_SEEDS = (DEFAULT_SEED, HELD_OUT_SEED)
COLD_SAMPLES = 5  # cold starts per run (this process plus fresh ones); setup_s, first_op_s are medians
COLD_CALIBRATIONS = 5  # calibration runs after a cold start's first op; their median scales it
CAL_SHARE = 0.1  # after each steady op, calibrate for at least this share of the op's time
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
RTOL = 1e-9
CAL_REF_S = 0.06  # the calibration kernel's median time on the reference machine (see NOTES.md)


def parse_args(argv, spec):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20.0, help="steady-state measuring time")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full", help="tiny is for the self-test")
    ap.add_argument("--inject-fault", action="store_true", help="negative control: the check must fail")
    ap.add_argument("--cold-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seconds < 0:
        ap.error("--seconds must be >= 0")
    return args


def cap_threads() -> int:
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        os.environ[var] = str(nproc)
    return nproc


def load_workloads():
    """Import the workloads (and with them numpy and the package) from this
    checkout's src/, never from an installed copy."""
    if not (SRC / "dssalab" / "__init__.py").is_file():
        raise SystemExit(f"error: package source not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import dssalab
    import workloads

    if Path(dssalab.__file__).resolve().parent != SRC / "dssalab":
        raise SystemExit(f"error: dssalab was imported from {dssalab.__file__}, not {SRC}")
    return workloads


def cold_samples(args, count: int) -> list[dict]:
    """Set-up and first-op times of fresh interpreter processes, so that
    imports and first calls are cold in each."""
    samples = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--size", args.size, "--cold-only"],
            cwd=ROOT, capture_output=True, text=True, timeout=150, check=True,
        )
        samples.append(json.loads(proc.stdout.splitlines()[-1]))
    return samples


def check(outputs: dict, refs: dict, digest: dict | None, is_exact) -> list[str]:
    """Names of outputs that fail their check; never empty-handed on no data.

    Exact outputs must equal their reference bit for bit, and a spike
    product must equal the INT8 product of the same op; other outputs must
    lie within RTOL * max(1, max|ref|) of the reference, element by element.
    """
    import numpy as np

    if not refs:
        return ["<no reference outputs>"]
    bad = list(set(outputs) ^ set(refs))
    for name, ref in refs.items():
        out = outputs.get(name)
        if out is None:
            continue
        out = np.asarray(out)
        if out.shape != ref.shape or out.size == 0:
            ok = False
        elif is_exact(name):
            ok = out.dtype == ref.dtype and out.tobytes() == ref.tobytes()
            if name.startswith("spike_"):
                ok = ok and out.tobytes() == np.asarray(outputs.get("int8_" + name[6:])).tobytes()
        else:
            ok = bool(np.all(np.abs(out - ref) <= RTOL * max(1.0, float(np.abs(ref).max()))))
        if ok and digest is not None:
            ok = digest_matches(out, digest.get(name), is_exact(name))
        if not ok:
            bad.append(name)
    return sorted(bad)


def digest(out, exact: bool) -> dict:
    """Compact fingerprint of one output: its SHA-256 when it must match bit
    for bit, else its shape and a grid of sampled elements."""
    import numpy as np

    if exact:
        return {"shape": list(out.shape), "sha256": hashlib.sha256(out.tobytes()).hexdigest()}
    rows = sorted({int(i) for i in np.linspace(0, out.shape[0] - 1, 6)})
    cols = sorted({int(i) for i in np.linspace(0, out.shape[1] - 1, 6)})
    return {"shape": list(out.shape), "rows": rows, "cols": cols,
            "values": out[np.ix_(rows, cols)].tolist(), "absmax": float(np.abs(out).max())}


def digest_matches(out, ref: dict | None, exact: bool) -> bool:
    import numpy as np

    if ref is None or list(out.shape) != ref["shape"]:
        return False
    if exact:
        return hashlib.sha256(out.tobytes()).hexdigest() == ref["sha256"]
    sample = out[np.ix_(ref["rows"], ref["cols"])]
    return bool(np.all(np.abs(sample - np.array(ref["values"])) <= RTOL * max(1.0, ref["absmax"])))


def inject_fault(outputs: dict, is_exact) -> dict:
    """Move one element of every output just past what its check allows."""
    import numpy as np

    faulty = {}
    for name, out in outputs.items():
        out = np.array(out, copy=True)
        if is_exact(name):
            out.flat[0] = np.nextafter(out.flat[0], np.inf)
        else:
            out.flat[0] += 10 * RTOL * max(1.0, float(np.abs(out).max()))
        faulty[name] = out
    return faulty


def blas_info() -> str:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        return "unknown"


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return proc.stdout.strip() or None


def src_sha256() -> str:
    """Digest of the package sources, for checkouts that are not git trees."""
    h = hashlib.sha256()
    for path in sorted((SRC / "dssalab").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


class Calibration:
    """A fixed kernel of the kind of work that dominates a workload's op. It
    calls no package code, so its time tracks only the machine's current
    speed for that kind of work. Neighbours on a shared host slow
    interpreter-bound and memory-bound code by different amounts, so one
    kernel does not fit every workload:

    - "interpreter": a pure-Python integer loop, for ops made of many small
      calls and Python loops;
    - "memory": six fresh 40 MB arrays, each filled once, for ops that
      allocate and write n-by-n arrays. Their cost depends on page faults
      and on whether huge pages are free at that moment, which varies over
      time; a kernel on arrays allocated once would not see that.
    """

    def __init__(self, kind: str):
        self.kind = kind
        self.samples: list[float] = []

    def measure(self) -> float:
        t0 = time.perf_counter()
        if self.kind == "interpreter":
            x = 0
            for i in range(500_000):
                x += i * i % 7
        else:
            import numpy as np

            for _ in range(6):
                np.empty(5_000_000).fill(1.0)
        self.samples.append(time.perf_counter() - t0)
        return self.samples[-1]

    def scale(self, since: int) -> float:
        """CAL_REF_S over the median of the calibration times from index `since` on."""
        return CAL_REF_S / statistics.median(self.samples[since:])


class OpRunner:
    """Runs and checks ops; keeps each op's wall time and the failures."""

    def __init__(self, wl, inputs, is_exact, inject: bool):
        self.wl, self.inputs, self.is_exact, self.inject = wl, inputs, is_exact, inject
        self.refs, self.digest = None, None
        self.attempted = 0
        self.failed_ops: set[int] = set()
        self.failures: list[str] = []  # messages; one not tied to an op taints every op

    def fail(self, message: str, op: int | None = None):
        self.failures.append(message if op is None else f"op {op}: {message}")
        if op is not None:
            self.failed_ops.add(op)

    def one(self, recorder=None) -> tuple[float, dict | None]:
        if recorder is not None:
            recorder.op = self.attempted
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            outputs = self.wl.op(self.inputs)
        except Exception as exc:  # a raising op is a failed op; the loop goes on
            outputs = None
            self.fail(f"{type(exc).__name__}: {exc}", self.attempted - 1)
        return time.perf_counter() - t0, outputs

    def verify(self, outputs):
        if outputs is None:
            return
        if self.inject:
            outputs = inject_fault(outputs, self.is_exact)
        bad = check(outputs, self.refs or {}, self.digest, self.is_exact)
        if bad:
            self.fail(f"output check failed for {', '.join(bad)}", self.attempted - 1)

    def loop(self, seconds: float, cal: Calibration, recorder=None) -> tuple[list[float], float]:
        """Closed loop of at least one op, starting no op that would likely end
        after `seconds`; each op is followed by calibration runs taking at
        least CAL_SHARE of its time, and checked. Returns each op's wall time
        and the loop's scale."""
        times, since = [], len(cal.samples)
        start = time.perf_counter()
        while not times or time.perf_counter() - start + statistics.median(times) <= seconds:
            elapsed, outputs = self.one(recorder)
            spent = 0.0
            while spent == 0.0 or spent < CAL_SHARE * elapsed:
                spent += cal.measure()
            times.append(elapsed)
            self.verify(outputs)
        return times, cal.scale(since)


def main(argv=None) -> int:
    spec = json.loads(SPEC.read_text())
    args = parse_args(argv, spec)
    nproc = cap_threads()

    t0 = time.perf_counter()
    workloads = load_workloads()
    wl = workloads.WORKLOADS[args.workload]
    recorder = outer = None
    if args.trace:
        import perlayer
        from tracing import WRAPPED, SpanRecorder

        recorder = SpanRecorder(keep=perlayer.KEEP)
        outer = SpanRecorder(keep=perlayer.MECHANISMS)
    with recorder.installed() if recorder else contextlib.nullcontext():
        inputs = wl.setup(args.seed, args.size)
    setup_s = time.perf_counter() - t0
    runner = OpRunner(wl, inputs, workloads.is_exact, args.inject_fault)
    first_op_s, first_outputs = runner.one()  # cold: the first op after set-up
    cal = Calibration(wl.calibration)
    for _ in range(COLD_CALIBRATIONS):
        cal.measure()
    scale = cal.scale(0)
    cold = {"setup_s": setup_s * scale, "first_op_s": first_op_s * scale,
            "wall_setup_s": setup_s, "wall_first_op_s": first_op_s}
    if args.cold_only:
        print(json.dumps(cold))
        return 0
    try:
        runner.refs = wl.reference(inputs)
    except ValueError as exc:  # an input built in set-up disagrees with the oracle
        runner.fail(f"reference: {exc}")
    if args.seed in ACCEPTED_SEEDS and args.size == "full":
        runner.digest = json.loads(DIGESTS.read_text())[args.workload][str(args.seed)]
    runner.verify(first_outputs)

    not_measured, missing, traced = [], [], []
    if args.trace:
        times, scale = runner.loop(args.seconds / 3, cal)
        with outer.installed(only=perlayer.MECHANISMS):
            runner.loop(args.seconds / 3, cal, outer)
        with recorder.installed():
            traced, traced_scale = runner.loop(args.seconds / 3, cal, recorder)
        names = [m["name"] for m in spec["per_layer"]]
        values, not_measured = perlayer.derive(recorder, outer, names, statistics.median(times) * scale,
                                               statistics.median(traced) * traced_scale)
        called = recorder.called()
        missing = [name for names in WRAPPED.values() for name in names if name not in called]
        absent = [name for name in wl.traced if name not in called]
        if absent:
            runner.fail(f"trace: expected calls never made: {', '.join(absent)}")
        metric_spec = spec["per_layer"]
        wall = {}
    else:
        times, scale = runner.loop(args.seconds, cal)
        colds = [cold] + cold_samples(args, COLD_SAMPLES - 1)
        values = {
            "tok_per_s": wl.tokens(inputs) * len(times) / sum(times) / scale,
            "op_s_p50": statistics.median(times) * scale,
            "first_op_s": statistics.median(c["first_op_s"] for c in colds),
            "setup_s": statistics.median(c["setup_s"] for c in colds),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metric_spec = spec["end_to_end"]
        wall = {"tok_per_s": wl.tokens(inputs) * len(times) / sum(times), "op_s_p50": statistics.median(times),
                "first_op_s": statistics.median(c["wall_first_op_s"] for c in colds),
                "setup_s": statistics.median(c["wall_setup_s"] for c in colds)}

    import numpy as np

    failed = runner.attempted if len(runner.failures) > len(runner.failed_ops) else len(runner.failed_ops)
    correct = not runner.failures
    record = {
        "workload": args.workload, "seed": args.seed, "accepted_seed": args.seed in ACCEPTED_SEEDS,
        "size": args.size, "seconds": args.seconds, "trace": args.trace, "ops": runner.attempted,
        "numpy": np.__version__, "blas": blas_info(),
        "blas_threads": {var: os.environ[var] for var in THREAD_VARS}, "nproc": nproc,
        "python": platform.python_version(), "git_commit": git_commit(), "src_sha256": src_sha256(),
        "cal_ref_s": CAL_REF_S, "cal_s_p50": statistics.median(cal.samples),
    }
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metric_spec}
    for name, m in metrics.items():
        note = "  (not measured)" if name in not_measured else ""
        if name in wall:
            note = f"  (wall {wall[name]:.6g})"
        print(f"{name:34s} {m['value']:.6g} {m['unit']}{note}")
    print(f"{'fail_ratio':34s} {failed / runner.attempted:.6g} ratio  ({failed}/{runner.attempted} ops)")
    for failure in runner.failures[:10]:
        print(f"FAIL {failure}")
    if missing:
        print(f"wrapped but never called: {', '.join(missing)}")
    print("record: " + json.dumps(record, sort_keys=True))

    OUT.mkdir(exist_ok=True)
    report = {"record": record, "metrics": metrics, "wall": wall, "failures": runner.failures,
              "op_s": times, "scale": scale, "traced_op_s": traced, "cal_s": cal.samples,
              "checked_outputs": sorted(runner.refs or {}), "not_measured": not_measured, "missing": missing}
    if recorder is not None:
        report["self_s"] = recorder.self_times()
        report["spans"] = recorder.dump()
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(report, separators=(",", ":")))

    print(json.dumps({"correct": correct, "attempted": runner.attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
