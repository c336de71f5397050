"""Per-layer metrics derived from the spans of a traced run.

Metric names, units and directions are those of BENCHMARK.json; this module
only computes the values. Times are per op, summed over the op's calls; the
reported value is the median over the traced ops. Model FLOPs come from `dssalab.costmodel` for
the (n, d, b, k, w, N, k) of each call: they are computed, not counted.
Statistics that need a call's inputs or outputs (aux loss, realized MoBA
activation, firing rate) are computed after the traced ops, off the timed
path, from the arguments and results the recorder kept.
"""

from __future__ import annotations

import math
from statistics import median

from dssalab import costmodel, losses, moba, spike
from tracing import ARGS, END, MECHANISM_LAYERS, NAME, OP, PARENT, RESULT, START, layer_of

# function names whose arguments and results the recorder must keep
KEEP = ("sse_forward", "moba_forward", "full_attention", "swa", "int8_matmul_reference",
        "spike_encode", "spike_matmul")

# traced function -> its (time, calls, model GFLOP/s, growth exponent) metrics;
# the cost model's exponent is the growth metric with "_model" appended
MECHANISMS = {
    "sse_forward": ("sse.forward_s", "sse.calls", "sse.model_gflop_s", "sse.growth_exp"),
    "moba_forward": ("moba.forward_s", "moba.calls", "moba.model_gflop_s", "moba.growth_exp"),
    "full_attention": ("attention.full_s", "attention.full_calls", "attention.full_model_gflop_s",
                       "attention.full_growth_exp"),
    "swa": ("attention.swa_s", "attention.swa_calls", "attention.swa_model_gflop_s",
            "attention.swa_growth_exp"),
}


def model_flops(name: str, args) -> float:
    """Cost-model prefill FLOPs of one mechanism call, from its arguments."""
    if name == "sse_forward":
        _, q, _, v, p = args
        n, d = q.shape
        return costmodel.cost_sse(n, d, p.num_partitions, p.top_k, v.shape[1]).prefill_flops
    n, d = args[0].shape
    if name == "moba_forward":
        return costmodel.cost_moba(n, d, args[3].block_size, args[3].top_k).prefill_flops
    if name == "full_attention":
        return costmodel.cost_fa(n, d).prefill_flops
    return costmodel.cost_swa(n, d, args[3]).prefill_flops


def _growth(points: dict[int, float]) -> float:
    """Exponent e of t ~ n^e between the shortest and longest length."""
    lo, hi = min(points), max(points)
    return math.log(points[hi] / points[lo]) / math.log(hi / lo)


def _realized_activation(q, k, p) -> float:
    """Mean share of the n keys each query attends, from `moba_selections`."""
    n = q.shape[0]
    attended = sum(
        min((b + 1) * p.block_size, sel.query_index + 1) - b * p.block_size
        for sel in moba.moba_selections(q, k, p) for b in sel.blocks
    )
    return attended / (n * n)


def _op_metrics(spans, all_spans, setup_spans) -> dict[str, float]:
    by_name: dict[str, list] = {}
    for s in spans:
        by_name.setdefault(s[NAME], []).append(s)

    def calls(name, outermost=False):
        """Spans of `name`; with `outermost`, not those inside a span of `name`."""
        return [s for s in by_name.get(name, ())
                if not (outermost and s[PARENT] >= 0 and all_spans[s[PARENT]][NAME] == name)]

    def total(name, outermost=False):
        return sum(s[END] - s[START] for s in calls(name, outermost))

    m: dict[str, float] = {}
    attn_flops = 0.0
    for name, (time_key, calls_key, rate_key, _) in MECHANISMS.items():
        mech = calls(name)
        if not mech:
            continue
        secs = total(name)
        flops = sum(model_flops(name, s[ARGS]) for s in mech)
        attn_flops += flops
        m[time_key], m[calls_key], m[rate_key] = secs, len(mech), flops / secs / 1e9
        m["costmodel.attn_flops"] = attn_flops
    if "moba_select" in by_name:
        m["moba.select_calls"] = len(calls("moba_select"))
    if "sse_gate" in by_name:
        m["sse.gate_calls"] = len(calls("sse_gate"))

    if "stack_forward" in by_name:
        m["stack.forward_s"] = total("stack_forward")
        covered = sum(s[END] - s[START] for s in spans if s[PARENT] >= 0
                      and all_spans[s[PARENT]][NAME] == "stack_forward"
                      and layer_of(s[NAME]) in MECHANISM_LAYERS)
        m["stack.self_s"] = m["stack.forward_s"] - covered
    if "softmax_rows" in by_name:
        m["tensor_ops.softmax_calls"] = len(calls("softmax_rows", outermost=True))
        m["tensor_ops.softmax_s"] = total("softmax_rows", outermost=True)
    if "rms_norm" in by_name or "silu" in by_name:
        m["tensor_ops.norm_act_s"] = total("rms_norm") + total("silu")

    if "quantize_activation_groups" in by_name:
        m["quant.quantize_act_s"] = total("quantize_activation_groups")
    if "int8_matmul_reference" in by_name:
        secs = total("int8_matmul_reference")
        ops = sum(2 * s[ARGS][0].codes.shape[0] * s[ARGS][0].codes.shape[1] * s[ARGS][1].codes.shape[1]
                  for s in by_name["int8_matmul_reference"])
        m["quant.int8_matmul_s"] = secs
        m["quant.int8_gop_s"] = ops / secs / 1e9
    if setup_spans:
        m["quant.quantize_weight_s"] = sum(s[END] - s[START] for s in setup_spans
                                           if s[NAME] == "quantize_weight_blocks")
    if "spike_encode" in by_name:
        m["spike.encode_s"] = total("spike_encode")
        m["spike.firing_rate"] = spike.firing_rate([s[RESULT] for s in by_name["spike_encode"]])
    if "spike_matmul" in by_name:
        reports = [s[RESULT][1] for s in by_name["spike_matmul"]]
        m["spike.matmul_s"] = total("spike_matmul")
        m["spike.add_events"] = sum(r.add_events for r in reports)
        m["spike.skip_ratio"] = sum(r.skipped_events for r in reports) / sum(r.plane_slots for r in reports)
    if "fp8_quantize" in by_name:
        m["fp8.quantize_s"] = total("fp8_quantize")
    if "fp8_matmul_emulated" in by_name:
        m["fp8.matmul_s"] = total("fp8_matmul_emulated")
    return m


def _growth_metrics(spans) -> dict[str, float]:
    """Growth exponents and MoBA's speed-up over full attention, from spans
    of a pass that wraps only the four mechanisms: wrappers of the per-token
    functions inside them would add time that grows with n."""
    secs: dict[str, dict[int, list[float]]] = {}
    flops: dict[str, dict[int, float]] = {}
    for s in spans:
        n = s[ARGS][1 if s[NAME] == "sse_forward" else 0].shape[0]
        secs.setdefault(s[NAME], {}).setdefault(n, []).append(s[END] - s[START])
        flops.setdefault(s[NAME], {})[n] = model_flops(s[NAME], s[ARGS])
    per_len = {name: {n: sum(t) / len(t) for n, t in by_n.items()} for name, by_n in secs.items()}
    m: dict[str, float] = {}
    for name, by_n in per_len.items():
        if len(by_n) >= 2:
            key = MECHANISMS[name][3]
            m[key], m[key + "_model"] = _growth(by_n), _growth(flops[name])
    shared = set(per_len.get("moba_forward", {})) & set(per_len.get("full_attention", {}))
    if shared:
        n = min(shared)
        m["moba.speedup_vs_fa"] = per_len["full_attention"][n] / per_len["moba_forward"][n]
    return m


def derive(recorder, outer, names, untraced_op_s: float, traced_op_s: float) -> tuple[dict, list[str]]:
    """Values of the per-layer metrics `names` and the names not measured.

    `recorder` holds the spans of the fully traced pass; `outer` those of
    the pass that wraps only MECHANISMS. Call after both are uninstalled:
    the statistics computed here call package functions that must not add
    spans.
    """
    spans = recorder.spans
    ops = sorted({s[OP] for s in spans if s[OP] >= 0})
    setup_spans = [s for s in spans if s[OP] < 0]
    per_op = [_op_metrics([s for s in spans if s[OP] == op], spans, setup_spans) for op in ops]
    per_op += [_growth_metrics([s for s in outer.spans if s[OP] == op])
                for op in sorted({s[OP] for s in outer.spans})]
    values: dict[str, float] = {}
    for name in names:
        samples = [m[name] for m in per_op if name in m]
        if samples:
            values[name] = median(samples)

    first = [s for s in spans if s[OP] == (ops[0] if ops else None)]
    sse_calls = [s for s in first if s[NAME] == "sse_forward"]
    if sse_calls:
        values["sse.aux_per_token"] = sum(
            losses.aux_loss(s[RESULT].gates, s[RESULT].freqs, s[ARGS][4].num_partitions,
                            s[ARGS][4].top_k).per_token for s in sse_calls) / len(sse_calls)
    moba_calls = [s for s in first if s[NAME] == "moba_forward"]
    if moba_calls:
        values["moba.realized_activation"] = sum(
            _realized_activation(s[ARGS][0], s[ARGS][1], s[ARGS][3]) for s in moba_calls) / len(moba_calls)
        values["moba.activation_ratio"] = sum(
            moba.activation_ratio(s[ARGS][0].shape[0], s[ARGS][3].block_size, s[ARGS][3].top_k)
            for s in moba_calls) / len(moba_calls)
    values["trace.overhead_ratio"] = traced_op_s / untraced_op_s
    not_measured = [name for name in names if name not in values]
    return {name: values.get(name, 0.0) for name in names}, not_measured
