"""Command-line verification and reporting surface.

Subcommands:

* attn-check: run each attention mechanism's package path against its
  reference (another form, masked_attention under a dense keep mask, or
  for gated SSE a per-token recurrence) on seeded inputs; JSON report of
  each pair's worst error, exit 0 only if every pair is within tolerance.
* quant-report: blockwise INT8 stats (chosen clips, per-block MSE) for a
  tensor file.
* spike-report: spike expansion stats (firing rate, add/skip events) for
  a tensor file, and whether the spike product equals the INT8 reference
  product bit for bit (exit 1 if not).
* scaling-table: CSV of modeled dense-vs-hybrid cost and memory across
  sequence lengths.
* plan-show: layer plan table with mechanism counts.
* layer-select: run the sensitivity-profile layer picker.
* loss-check: combined-loss breakdown for a fixture file or the built-in
  demo fixture.
* moba-trace: per-query block selections for a query and a key tensor
  file, or for seeded random inputs.

Each command returns its exit code and its record: a dict, or the text of
a table. main alone writes records, to stdout or to --out: a dict as JSON
with schema_version, the command's name as "command" and sorted keys.
Result records are built through dataclasses.asdict; identical arguments
and seed give byte-identical bytes. JSON input is read by
tensorio.read_json. Exit codes: 0 success, 1 check failure, 2 usage or
input error.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from dataclasses import asdict, astuple, fields

import numpy as np

from . import costmodel, losses, quant, spike, stack, tensorio
from .attention import (
    causal_keep,
    full_attention,
    linear_attention_parallel,
    linear_attention_recurrent,
    masked_attention,
    swa,
    window_keep,
)
from .moba import MobaParams, block_pool_keys, moba_forward, moba_select, moba_selections
from .sse import SSEParams, sse_forward
from .tensor_ops import ShapeError, softmax_rows

SCHEMA_VERSION = 1
DEFAULT_TOLERANCE = 1e-10


@contextlib.contextmanager
def _naming(source: str):
    """Prefix any ValueError raised inside with the input it came from, so
    its one error line names that input."""
    try:
        yield
    except ValueError as exc:
        raise type(exc)(f"{source}: {exc}") from None


def positive_int(text: str) -> int:
    """argparse type for counts and sizes: a malformed or non-positive value
    is a usage error (exit 2), never a crash or a check of nothing."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def finite_non_negative_float(text: str) -> float:
    """argparse type for tolerances and thresholds: NaN, infinities and
    negative values are usage errors (exit 2)."""
    value = float(text)
    if not 0.0 <= value < float("inf"):
        raise argparse.ArgumentTypeError(f"expected a finite non-negative number, got {text!r}")
    return value


def parse_length(text: str) -> int:
    """Sequence length with binary suffixes: 128k = 128*1024, 1M = 1024^2."""
    text = text.strip()
    if text.lower().endswith("k"):
        return int(text[:-1]) * 1024
    if text.lower().endswith("m"):
        return int(text[:-1]) * 1024 * 1024
    return int(text)


def positive_list(parse):
    """argparse type for a comma-separated list of values read by `parse`:
    no value, or one below 1, is a usage error (exit 2)."""

    def comma_list(text: str) -> list[int]:
        values = [parse(part) for part in text.split(",") if part]
        if not values or min(values) < 1:
            raise argparse.ArgumentTypeError(f"expected comma-separated positive values, got {text!r}")
        return values

    return comma_list


def _max_abs_diff(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.max(np.abs(a - b))) if a.size else 0.0


# ---------------------------------------------------------------- attn-check


def _fault(keep: np.ndarray, fault: bool) -> np.ndarray:
    # the one injected fault: the last row drops its first kept key (or
    # selected partition), never its only one where it is injected (n >= 2)
    if fault:
        keep[-1, np.argmax(keep[-1])] = False
    return keep


def _sse_gated_recurrent(x, q, k, v, params: SSEParams, fault: bool) -> np.ndarray:
    """The per-token gated SSE recurrence: token t ranks the softmax gates of
    x_t (stable argsort, ties to the lower partition), adds gate-weighted
    outer(k_t, v_t) to each of its top_k partitions and reads them back
    gate-weighted. Identity feature map."""
    gates = softmax_rows(x @ params.gate_weight)
    selected = np.zeros(gates.shape, dtype=bool)
    np.put_along_axis(selected, np.argsort(-gates, axis=1, kind="stable")[:, : params.top_k], True, axis=1)
    _fault(selected, fault)
    state = np.zeros((params.num_partitions, q.shape[1], v.shape[1]))
    out = np.zeros((q.shape[0], v.shape[1]))
    for t in range(q.shape[0]):
        for i in np.flatnonzero(selected[t]):
            state[i] += gates[t, i] * np.outer(k[t], v[t])
            out[t] += gates[t, i] * (q[t] @ state[i])
    return out


def _moba_keep(q, k, params: MobaParams) -> np.ndarray:
    """moba_select's block mask expanded to a dense causal keep mask."""
    n, b = q.shape[0], params.block_size
    selected = moba_select(q, block_pool_keys(k, b), params)
    return np.repeat(selected, b, axis=1)[:, :n] & causal_keep(n)


def cmd_attn_check(args) -> tuple[int, dict]:
    if args.inject_fault and max(args.sizes) < 2:
        # the fault drops the last row's first key, so it is injected only at
        # n >= 2, where that row keeps another
        raise ValueError("--inject-fault needs a length of at least 2 in --sizes")
    rng = np.random.default_rng(args.seed)
    # the SSE gate weights draw from their own stream, so q, k and v are
    # the same draws with or without the gated row
    gate_rng = np.random.default_rng(np.random.SeedSequence(args.seed).spawn(1)[0])
    errors: dict[str, float] = {}
    fault_pending = args.inject_fault
    for n in args.sizes:
        for d in args.dims:
            for _ in range(args.trials):
                q, k, v = (rng.standard_normal((n, d)) * 0.3 for _ in range(3))
                fault = fault_pending and n >= 2
                if fault:
                    fault_pending = False
                lin_par = linear_attention_parallel(q, k, v)
                sse_params = SSEParams(num_partitions=1, top_k=1, gate_weight=np.zeros((d, 1)))
                gated = SSEParams(num_partitions=4, top_k=2, gate_weight=gate_rng.standard_normal((d, 4)))
                select_all = MobaParams(block_size=2, top_k=(n + 1) // 2 + 1)
                # about 8 blocks and 4 slots: past n = 4, some rows read
                # their selection rather than attending fully
                sparse = MobaParams(block_size=max(1, n // 8), top_k=4)
                # a window of n // 2 cuts the band from n = 3 on
                w = max(2, n // 2)
                # name -> (package path, reference)
                rows = {
                    "linear_parallel_vs_recurrent": (lin_par, linear_attention_recurrent(q, k, v)),
                    "sse_single_partition_vs_linear_parallel": (
                        sse_forward(q, q, k, v, sse_params).outputs, lin_par),
                    "sse_gated_vs_recurrent": (
                        sse_forward(q, q, k, v, gated).outputs,
                        _sse_gated_recurrent(q, q, k, v, gated, fault)),
                    "moba_select_all_vs_full": (moba_forward(q, k, v, select_all), full_attention(q, k, v)),
                    "moba_sparse_vs_masked": (
                        moba_forward(q, k, v, sparse),
                        masked_attention(q, k, v, _fault(_moba_keep(q, k, sparse), fault))),
                    "swa_full_window_vs_full": (
                        swa(q, k, v, n), masked_attention(q, k, v, _fault(window_keep(n, n), fault))),
                    "swa_vs_masked": (
                        swa(q, k, v, w), masked_attention(q, k, v, _fault(window_keep(n, w), fault))),
                }
                for name, (got, want) in rows.items():
                    errors[name] = max(errors.get(name, 0.0), _max_abs_diff(got, want))
    properties = [
        {"name": name, "max_abs_error": err, "tolerance": args.tolerance, "pass": err <= args.tolerance}
        for name, err in sorted(errors.items())
    ]
    ok = all(p["pass"] for p in properties)
    return 0 if ok else 1, {"seed": args.seed, "properties": properties, "pass": ok}


# -------------------------------------------------------------- quant-report


def cmd_quant_report(args) -> tuple[int, dict]:
    w = tensorio.load_tensor(args.input)
    with _naming(f"--grid {args.grid}"):
        grid = tuple(float(part) for part in args.grid.split(",") if part)
        quant.clip_grid_desc(grid)
    # not 2-D, no elements, or finite values too large to quantize
    with _naming(f"tensor file {args.input}"):
        qw = quant.quantize_weight_blocks(w, grid=grid, block_shape=(args.block_size, args.block_size))
    if args.save:
        quant.save_block_matrix(args.save, qw)
    return 0, {
        "shape": list(qw.shape),
        "block_shape": list(qw.block_shape),
        "grid": list(grid),
        "chosen_clip": qw.clips.tolist(),
        "mse_per_block": qw.mse.tolist(),
        "mean_mse": float(qw.mse.mean()),
    }


# -------------------------------------------------------------- spike-report


def cmd_spike_report(args) -> tuple[int, dict]:
    x = tensorio.load_tensor(args.input)
    w = tensorio.load_tensor(args.weight) if args.weight else None
    through = f" through weight file {args.weight}" if args.weight else ""
    # not 2-D, a weight of the wrong shape, or a product past float64
    with _naming(f"tensor file {args.input}{through}"):
        qa = quant.quantize_activation_groups(x, group_size=args.group_size)
        if x.shape[1] == 0:
            raise ShapeError(f"no columns, shape {x.shape}")
        train = spike.spike_encode(qa)
        if w is None:
            w = np.ones((x.shape[1], 1))  # notional single output column
        qw = quant.quantize_weight_blocks(w, block_shape=(args.group_size, args.group_size))
        product, report = spike.spike_matmul(train, qw)
        reference = quant.int8_matmul_reference(qa, qw)
    matches = bool(np.array_equal(product, reference))
    return 0 if matches else 1, {
        "shape": list(x.shape),
        "group_size": args.group_size,
        "firing_rate": spike.firing_rate(train),
        "matches_int8_reference": matches,
        **asdict(report),
    }


# ------------------------------------------------------------- scaling-table


def _plan(obj: dict) -> stack.LayerPlan:
    return stack.LayerPlan(kinds=tuple(tensorio.json_list(obj, "kinds")))


def _load_plan(path: str | None) -> stack.LayerPlan:
    return stack.default_plan() if path is None else tensorio.read_json(path, _plan)


def cmd_scaling_table(args) -> tuple[int, str]:
    plan = _load_plan(args.plan)
    for flag, value in (("--block-size", args.block_size), ("--top-k", args.top_k)):
        if args.schedule == "auto" and value is not None:
            raise ValueError(f"{flag} does not apply under --schedule auto, which sets it per length")
    # a flag left out takes CostParams' default
    given = {"d_model": args.d_model, "moba_block_size": args.block_size, "moba_top_k": args.top_k}
    params = costmodel.CostParams(**{name: value for name, value in given.items() if value is not None})
    rows = costmodel.scaling_rows(args.lengths, params, plan=plan, schedule=args.schedule)
    lines = [",".join(f.name for f in fields(costmodel.ScalingRow))]
    for r in rows:
        n, *values = astuple(r)
        lines.append(",".join([str(n), *(f"{v:.10g}" for v in values)]))
    return 0, "\n".join(lines)


# ----------------------------------------------------------------- plan-show


def cmd_plan_show(args) -> tuple[int, str]:
    plan = _load_plan(args.plan)
    counts = plan.counts()
    lines = [
        f"layers: {len(plan)}",
        "counts: " + " ".join(f"{kind}={counts[kind]}" for kind in stack.LAYER_KINDS),
        "",
        "layer  mechanism",
    ]
    for i, kind in enumerate(plan.kinds):
        lines.append(f"{i:>5}  {kind}")
    return 0, "\n".join(lines)


# -------------------------------------------------------------- layer-select


def _profile(obj: dict) -> stack.SensitivityProfile:
    scores = tuple(map(tensorio.json_number, tensorio.json_list(obj, "scores")))
    return stack.SensitivityProfile(scores=scores)


def cmd_layer_select(args) -> tuple[int, dict]:
    profile = tensorio.read_json(args.profile, _profile)
    selected = stack.select_moba_layers(profile, args.threshold)
    return 0, {
        "num_layers": len(profile.scores),
        "threshold": args.threshold,
        "selected": selected,
    }


# ---------------------------------------------------------------- loss-check


# mode -> (objective, required parts, optional coefficients); a coefficient
# the fixture leaves out takes the objective's default
LOSS_MODES = {
    "llm": (losses.combined_loss_llm, ("ce", "aux", "kd", "mse"), ("c", "alpha", "beta")),
    "vlm": (losses.combined_loss_vlm, ("kd", "mse"), ("alpha", "beta")),
}


def _loss_fixture(obj: dict) -> tuple[str, dict[str, float]]:
    """(mode, keyword arguments of the mode's objective) from a fixture."""
    mode = obj.get("mode", "llm")
    if mode not in LOSS_MODES:
        raise ValueError(f"unknown loss mode {mode!r}")
    _, parts, coeffs = LOSS_MODES[mode]
    given = parts + tuple(name for name in coeffs if name in obj)
    return mode, {name: tensorio.json_number(obj[name]) for name in given}


def _demo_loss_fixture(seed: int) -> dict:
    rng = np.random.default_rng(seed)
    n, num_partitions, top_k, vocab = 8, 4, 2, 16
    gates = np.full((n, num_partitions), 1.0 / num_partitions)
    freqs = np.full((n, num_partitions), top_k / num_partitions)
    aux = losses.aux_loss(gates, freqs, num_partitions, top_k)
    teacher = rng.standard_normal((n, vocab))
    student = teacher + 0.1 * rng.standard_normal((n, vocab))
    kd = losses.kd_topk_kl(teacher, student, top_k=8)
    reps_t = [rng.standard_normal((n, 4)) for _ in range(2)]
    reps_s = [r + 0.05 for r in reps_t]
    mse = losses.layerwise_mse(reps_s, reps_t)
    return {"mode": "llm", "ce": 2.0, "aux": aux.per_token, "kd": kd.value, "mse": mse}


def cmd_loss_check(args) -> tuple[int, dict]:
    if args.fixture:
        mode, parts = tensorio.read_json(args.fixture, _loss_fixture)
    else:
        mode, parts = _loss_fixture(_demo_loss_fixture(args.seed))
    # parts out of their range, or finite parts whose weighted sum passes float64
    with _naming(f"fixture {args.fixture}"):
        breakdown = LOSS_MODES[mode][0](**parts)
    return 0, {"mode": mode, **asdict(breakdown)}


# ---------------------------------------------------------------- moba-trace


def cmd_moba_trace(args) -> tuple[int, dict]:
    params = MobaParams(block_size=args.block_size, top_k=args.top_k)
    if bool(args.queries) != bool(args.keys):
        raise ValueError(f"--queries and --keys go together; got only {args.queries or args.keys}")
    if args.queries:
        q = tensorio.load_tensor(args.queries)
        k = tensorio.load_tensor(args.keys)
        source = f"query file {args.queries} and key file {args.keys}"
    else:
        rng = np.random.default_rng(args.seed)
        q = rng.standard_normal((args.n, args.d))
        k = rng.standard_normal((args.n, args.d))
        source = f"seed {args.seed}"
    with _naming(source):  # shapes that disagree, or scores past float64
        selections = moba_selections(q, k, params)
    return 0, {
        "n": q.shape[0],
        "block_size": args.block_size,
        "top_k": args.top_k,
        "selections": [asdict(s) for s in selections],
    }


# -------------------------------------------------------------------- parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="dssalab", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("attn-check", help="attention equivalence suites")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--sizes", type=positive_list(int), default="1,4,8,16",
                   help="comma-separated sequence lengths")
    p.add_argument("--dims", type=positive_list(int), default="2,4", help="comma-separated head dims")
    p.add_argument("--trials", type=positive_int, default=5)
    p.add_argument("--tolerance", type=finite_non_negative_float, default=DEFAULT_TOLERANCE)
    p.add_argument("--inject-fault", action="store_true",
                   help="drop one kept key in the window and sparse MoBA suites and one selected "
                        "partition in the gated SSE suite (negative control)")
    p.set_defaults(func=cmd_attn_check)

    p = sub.add_parser("quant-report", help="blockwise INT8 weight stats")
    p.add_argument("--input", required=True, help="tensor file (json or binary)")
    p.add_argument("--grid", default=",".join(str(c) for c in quant.DEFAULT_CLIP_GRID))
    p.add_argument("--block-size", type=positive_int, default=quant.DEFAULT_GROUP_SIZE)
    p.add_argument("--save", default=None, help="write the quantized container here")
    p.set_defaults(func=cmd_quant_report)

    p = sub.add_parser("spike-report", help="spike expansion stats")
    p.add_argument("--input", required=True, help="activation tensor file")
    p.add_argument("--group-size", type=positive_int, default=quant.DEFAULT_GROUP_SIZE)
    p.add_argument("--weight", default=None, help="optional weight tensor file")
    p.set_defaults(func=cmd_spike_report)

    p = sub.add_parser("scaling-table", help="cost/memory scaling CSV")
    p.add_argument("--lengths", type=positive_list(parse_length), default="128k,256k,512k,1M,2M,4M")
    p.add_argument("--plan", default=None, help="layer plan JSON file (default: built-in plan)")
    p.add_argument("--schedule", choices=("fixed", "auto"), default="fixed")
    p.add_argument("--d-model", type=positive_int)
    p.add_argument("--block-size", type=positive_int)
    p.add_argument("--top-k", type=positive_int)
    p.set_defaults(func=cmd_scaling_table)

    p = sub.add_parser("plan-show", help="layer plan table")
    p.add_argument("--plan", default=None)
    p.set_defaults(func=cmd_plan_show)

    p = sub.add_parser("layer-select", help="sensitivity-driven layer picking")
    p.add_argument("--profile", required=True, help="JSON file with per-layer scores")
    p.add_argument("--threshold", type=finite_non_negative_float, required=True)
    p.set_defaults(func=cmd_layer_select)

    p = sub.add_parser("loss-check", help="combined loss breakdown")
    p.add_argument("--fixture", default=None, help="JSON fixture with loss parts")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_loss_check)

    p = sub.add_parser("moba-trace", help="block selections per query")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n", type=positive_int, default=16)
    p.add_argument("--d", type=positive_int, default=4)
    p.add_argument("--block-size", type=positive_int, default=4)
    p.add_argument("--top-k", type=positive_int, default=2)
    p.add_argument("--queries", default=None, help="query tensor file")
    p.add_argument("--keys", default=None, help="key tensor file")
    p.set_defaults(func=cmd_moba_trace)

    for p in sub.choices.values():  # last, so each usage line ends with it
        p.add_argument("--out", default=None)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code, record = args.func(args)
        if not isinstance(record, str):
            record = dict(record, schema_version=SCHEMA_VERSION, command=args.command)
            # a NaN or infinity is not JSON: raise (exit 2) rather than write it
            record = json.dumps(record, sort_keys=True, indent=2, allow_nan=False)
        with open(args.out, "w") if args.out else contextlib.nullcontext(sys.stdout) as fh:
            fh.write(record + "\n")
        return code
    except (ValueError, OSError) as exc:  # ShapeError and NumericsError are ValueErrors
        print(f"dssalab: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
