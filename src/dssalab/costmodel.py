"""Analytical FLOP and memory model for the hybrid stack.

Counts attention arithmetic only, at 2 FLOPs per multiply-add, with no
causal-triangle discount; feed-forward and projection costs are identical
across mechanisms and are deliberately excluded, so only the attention
scaling shape differs between stacks. Absolute numbers are therefore
nominal; the model's claims live in ratios and growth rates.

Per-layer prefill FLOPs over n tokens at width d:

* full attention:  4*n^2*d
* block-sparse:    2*n^2*d/b + 4*n*min(k*b, n)*d
* sparse-state:    4*n*d*d_v*(k+1)
* sliding window:  4*n*min(w, n)*d

Memory: full and block-sparse layers hold the whole KV cache
(2*n*d*bytes); window layers hold 2*min(w, n)*d*bytes; sparse-state
layers hold a fixed state of N*d*d_v*bytes and no KV.

CostParams sets d, b and k. The rest are module constants: 2 bytes per
value, N = 4 SSE partitions, SSE top-k 2, d_v = 128 and w = 128.

Costs add field by field: a merged sse_swa layer costs its SSE half plus
its window half, and a plan costs its layers' costs added in plan order,
one LayerCost. A plan whose cost passes float64 raises NumericsError.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass, replace

from .moba import activation_ratio
from .stack import LayerPlan, default_plan
from .tensor_ops import NumericsError

FLOPS_PER_MAC = 2
BYTES_PER_VALUE = 2
SSE_PARTITIONS = 4
SSE_TOP_K = 2
SSE_VALUE_DIM = 128
SWA_WINDOW = 128


@dataclass(frozen=True)
class CostParams:
    """Model width and the block-sparse layers' block size and top-k."""

    d_model: int = 4096
    moba_block_size: int = 4096
    moba_top_k: int = 12

    def __post_init__(self):
        if min(self.d_model, self.moba_block_size, self.moba_top_k) < 1:
            raise ValueError("all cost parameters must be >= 1")


@dataclass(frozen=True)
class LayerCost:
    """Attention cost of one layer, or of layers added together."""

    prefill_flops: float
    kv_bytes: float
    state_bytes: float

    def __add__(self, other: LayerCost) -> LayerCost:
        return LayerCost(
            prefill_flops=self.prefill_flops + other.prefill_flops,
            kv_bytes=self.kv_bytes + other.kv_bytes,
            state_bytes=self.state_bytes + other.state_bytes,
        )

    @property
    def total_bytes(self) -> float:
        return self.kv_bytes + self.state_bytes


def _check_n(n: int) -> None:
    if n < 1:
        raise ValueError(f"sequence length must be >= 1, got {n}")


def cost_fa(n: int, d: int) -> LayerCost:
    _check_n(n)
    mac = FLOPS_PER_MAC
    return LayerCost(
        prefill_flops=2 * mac * n * n * d,
        kv_bytes=2 * n * d * BYTES_PER_VALUE,
        state_bytes=0.0,
    )


def cost_moba(n: int, d: int, b: int, k: int) -> LayerCost:
    _check_n(n)
    mac = FLOPS_PER_MAC
    attended = min(k * b, n)
    return LayerCost(
        prefill_flops=mac * n * (n / b) * d + 2 * mac * n * attended * d,
        kv_bytes=2 * n * d * BYTES_PER_VALUE,
        state_bytes=0.0,
    )


def cost_sse(n: int, d: int, num_partitions: int, k: int, d_v: int) -> LayerCost:
    _check_n(n)
    mac = FLOPS_PER_MAC
    per_token = 2 * mac * d * d_v * (k + 1)  # rank-1 update + read over k+1 partitions
    return LayerCost(
        prefill_flops=n * per_token,
        kv_bytes=0.0,
        state_bytes=num_partitions * d * d_v * BYTES_PER_VALUE,
    )


def cost_swa(n: int, d: int, w: int) -> LayerCost:
    _check_n(n)
    mac = FLOPS_PER_MAC
    span = min(w, n)
    return LayerCost(
        prefill_flops=2 * mac * n * span * d,
        kv_bytes=2 * span * d * BYTES_PER_VALUE,
        state_bytes=0.0,
    )


def layer_cost(kind: str, n: int, p: CostParams) -> LayerCost:
    d = p.d_model
    if kind == "fa":
        return cost_fa(n, d)
    if kind == "moba":
        return cost_moba(n, d, p.moba_block_size, p.moba_top_k)
    if kind == "sse_swa":
        return cost_sse(n, d, SSE_PARTITIONS, SSE_TOP_K, SSE_VALUE_DIM) + cost_swa(n, d, SWA_WINDOW)
    raise ValueError(f"unknown layer kind {kind!r}")


def plan_cost(plan: LayerPlan, n: int, p: CostParams) -> LayerCost:
    """The plan's layer costs added in plan order; NumericsError if a cost
    passes float64 (an int too large for a float, or an infinity)."""
    try:
        first, *rest = (layer_cost(kind, n, p) for kind in plan.kinds)
        total = sum(rest, first)
        if all(map(math.isfinite, astuple(total))):
            return total
    except OverflowError:
        pass
    raise NumericsError(f"attention cost at n={n}, d_model={p.d_model} passes float64")


def all_fa_plan(num_layers: int) -> LayerPlan:
    return LayerPlan(kinds=("fa",) * num_layers)


def auto_moba_schedule(n: int) -> tuple[int, int]:
    """Length-dependent (block_size, top_k) preset: coarser blocks and more
    of them as the context grows."""
    _check_n(n)
    if n <= 8192:
        return 512, 4
    if n <= 65536:
        return 1024, 8
    return 4096, 12


@dataclass(frozen=True)
class ScalingRow:
    n: int
    fa_cost: float
    dssa_cost: float
    ratio: float
    fa_kv_bytes: float
    dssa_kv_bytes: float
    moba_activation_ratio: float


def scaling_rows(lengths, p: CostParams, plan: LayerPlan | None = None,
                 schedule: str = "fixed") -> list[ScalingRow]:
    """One row per length: all-full-attention stack vs the hybrid plan.

    schedule "fixed" uses the (block_size, top_k) in p for every length;
    "auto" swaps in auto_moba_schedule(n).
    """
    if schedule not in ("fixed", "auto"):
        raise ValueError(f"unknown schedule {schedule!r}")
    if plan is None:
        plan = default_plan()
    rows = []
    for n in lengths:
        params = p
        if schedule == "auto":
            b, k = auto_moba_schedule(n)
            params = replace(p, moba_block_size=b, moba_top_k=k)
        dssa = plan_cost(plan, n, params)
        dense = plan_cost(all_fa_plan(len(plan)), n, params)
        rows.append(
            ScalingRow(
                n=n,
                fa_cost=dense.prefill_flops,
                dssa_cost=dssa.prefill_flops,
                ratio=dense.prefill_flops / dssa.prefill_flops,
                fa_kv_bytes=dense.total_bytes,
                dssa_kv_bytes=dssa.total_bytes,
                moba_activation_ratio=activation_ratio(n, params.moba_block_size, params.moba_top_k),
            )
        )
    return rows
