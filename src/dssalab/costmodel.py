"""Analytical FLOP and memory model for the hybrid stack.

Counts attention arithmetic only, at 2 FLOPs per multiply-add, with no
causal-triangle discount; feed-forward and projection costs are identical
across mechanisms and are deliberately excluded, so only the attention
scaling shape differs between stacks. Absolute numbers are therefore
nominal; the model's claims live in ratios and growth rates.

Per-layer FLOP shapes (prefill over n tokens / decode for one token at
context n):

* full attention:  4*n^2*d            / 4*n*d
* block-sparse:    2*n^2*d/b + 4*n*min(k*b, n)*d  / 2*(n/b)*d + 4*min(k*b, n)*d
* sparse-state:    4*n*d*d_v*(k+1)    / 4*d*d_v*(k+1)
* sliding window:  4*n*min(w, n)*d    / 4*min(w, n)*d

Memory: full and block-sparse layers hold the whole KV cache
(2*n*d*bytes); window layers hold 2*min(w, n)*d*bytes; sparse-state
layers hold a fixed state of N*d*d_v*bytes and no KV.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .moba import activation_ratio
from .stack import LayerPlan, default_plan

FLOPS_PER_MAC = 2


@dataclass(frozen=True)
class CostParams:
    """Model-level constants shared by every layer."""

    d_model: int = 4096
    bytes_per_value: int = 2
    sse_partitions: int = 4
    sse_top_k: int = 2
    sse_value_dim: int = 128
    swa_window: int = 128
    moba_block_size: int = 4096
    moba_top_k: int = 12

    def __post_init__(self):
        if min(self.d_model, self.bytes_per_value, self.sse_partitions, self.sse_top_k,
               self.sse_value_dim, self.swa_window, self.moba_block_size, self.moba_top_k) < 1:
            raise ValueError("all cost parameters must be >= 1")


@dataclass(frozen=True)
class LayerCost:
    kind: str
    prefill_flops: float
    decode_flops: float
    kv_bytes: float
    state_bytes: float


@dataclass
class CostReport:
    """Per-layer entries plus totals for one stack at one length."""

    n: int
    layers: list[LayerCost]

    @property
    def prefill_flops(self) -> float:
        return sum(layer.prefill_flops for layer in self.layers)

    @property
    def decode_flops(self) -> float:
        return sum(layer.decode_flops for layer in self.layers)

    @property
    def kv_bytes(self) -> float:
        return sum(layer.kv_bytes for layer in self.layers)

    @property
    def state_bytes(self) -> float:
        return sum(layer.state_bytes for layer in self.layers)

    @property
    def total_bytes(self) -> float:
        return self.kv_bytes + self.state_bytes


def _check_n(n: int) -> None:
    if n < 1:
        raise ValueError(f"sequence length must be >= 1, got {n}")


def cost_fa(n: int, d: int, bytes_per_value: int = 2) -> LayerCost:
    _check_n(n)
    mac = FLOPS_PER_MAC
    return LayerCost(
        kind="fa",
        prefill_flops=2 * mac * n * n * d,
        decode_flops=2 * mac * n * d,
        kv_bytes=2 * n * d * bytes_per_value,
        state_bytes=0.0,
    )


def cost_moba(n: int, d: int, b: int, k: int, bytes_per_value: int = 2) -> LayerCost:
    _check_n(n)
    mac = FLOPS_PER_MAC
    attended = min(k * b, n)
    return LayerCost(
        kind="moba",
        prefill_flops=mac * n * (n / b) * d + 2 * mac * n * attended * d,
        decode_flops=mac * (n / b) * d + 2 * mac * attended * d,
        kv_bytes=2 * n * d * bytes_per_value,
        state_bytes=0.0,
    )


def cost_sse(n: int, d: int, num_partitions: int, k: int, d_v: int,
             bytes_per_value: int = 2) -> LayerCost:
    _check_n(n)
    mac = FLOPS_PER_MAC
    per_token = 2 * mac * d * d_v * (k + 1)  # rank-1 update + read over k+1 partitions
    return LayerCost(
        kind="sse",
        prefill_flops=n * per_token,
        decode_flops=per_token,
        kv_bytes=0.0,
        state_bytes=num_partitions * d * d_v * bytes_per_value,
    )


def cost_swa(n: int, d: int, w: int, bytes_per_value: int = 2) -> LayerCost:
    _check_n(n)
    mac = FLOPS_PER_MAC
    span = min(w, n)
    return LayerCost(
        kind="swa",
        prefill_flops=2 * mac * n * span * d,
        decode_flops=2 * mac * span * d,
        kv_bytes=2 * span * d * bytes_per_value,
        state_bytes=0.0,
    )


def _merge(kind: str, a: LayerCost, b: LayerCost) -> LayerCost:
    return LayerCost(
        kind=kind,
        prefill_flops=a.prefill_flops + b.prefill_flops,
        decode_flops=a.decode_flops + b.decode_flops,
        kv_bytes=a.kv_bytes + b.kv_bytes,
        state_bytes=a.state_bytes + b.state_bytes,
    )


def layer_cost(kind: str, n: int, p: CostParams) -> LayerCost:
    d, by = p.d_model, p.bytes_per_value
    if kind == "fa":
        return cost_fa(n, d, by)
    if kind == "moba":
        return cost_moba(n, d, p.moba_block_size, p.moba_top_k, by)
    if kind == "sse_swa":
        return _merge(
            "sse_swa",
            cost_sse(n, d, p.sse_partitions, p.sse_top_k, p.sse_value_dim, by),
            cost_swa(n, d, p.swa_window, by),
        )
    raise ValueError(f"unknown layer kind {kind!r}")


def plan_cost(plan: LayerPlan, n: int, p: CostParams) -> CostReport:
    return CostReport(n=n, layers=[layer_cost(kind, n, p) for kind in plan.kinds])


def all_fa_plan(num_layers: int) -> LayerPlan:
    return LayerPlan(kinds=("fa",) * num_layers)


def kv_ratio(plan: LayerPlan, n: int, p: CostParams) -> float:
    """KV+state bytes of an all-full-attention stack of the same depth,
    over those of the given plan."""
    dense = plan_cost(all_fa_plan(len(plan)), n, p).total_bytes
    mixed = plan_cost(plan, n, p).total_bytes
    return dense / mixed


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
