"""Sparse State Expansion attention.

Linear attention whose state is split into N partitions with shared
parameters. At each step a softmax gate over the token representation picks
the top-k partitions; only those receive the rank-1 state update, and the
output reads back the gate-weighted selected partitions. An optional
always-selected partition is appended after the top-k without evicting a
gated winner, so the per-step update count may be k+1.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .tensor_ops import ShapeError, as_f64, ensure_finite, l2_normalize_rows, silu, softmax_rows

FEATURE_MAPS = ("identity", "silu")


@dataclass(frozen=True)
class SSEParams:
    """Gating and preprocessing configuration.

    gate_weight has shape (d_model, num_partitions).
    """

    num_partitions: int
    top_k: int
    gate_weight: np.ndarray
    always_selected: int | None = None
    feature_map: str = "identity"
    qk_l2_norm: bool = False

    def __post_init__(self):
        w = as_f64(self.gate_weight)
        object.__setattr__(self, "gate_weight", w)
        if not 1 <= self.top_k <= self.num_partitions:
            raise ValueError(f"need 1 <= top_k <= num_partitions, got {self.top_k}/{self.num_partitions}")
        if w.ndim != 2 or w.shape[1] != self.num_partitions:
            raise ShapeError(f"gate_weight shape {w.shape} != (d_model, {self.num_partitions})")
        if self.always_selected is not None and not 0 <= self.always_selected < self.num_partitions:
            raise ValueError(f"always_selected {self.always_selected} out of range")
        if self.feature_map not in FEATURE_MAPS:
            raise ValueError(f"unknown feature_map {self.feature_map!r}")


@dataclass
class SSEState:
    """N state matrices of shape (d, d_v) plus per-partition selection counters."""

    partitions: np.ndarray  # (N, d, d_v)
    freq: np.ndarray  # (N,) int64

    @classmethod
    def zeros(cls, num_partitions: int, d: int, d_v: int) -> "SSEState":
        return cls(
            partitions=np.zeros((num_partitions, d, d_v)),
            freq=np.zeros(num_partitions, dtype=np.int64),
        )


@dataclass
class SSEResult:
    outputs: np.ndarray  # (n, d_v)
    state: SSEState
    gates: np.ndarray  # (n, N) softmax gates e_t
    freqs: np.ndarray  # (n, N) running selection frequency after step t
    selections: list = field(default_factory=list)  # per step: sorted tuple of indices


def sse_gate(x_row, params: SSEParams) -> tuple[np.ndarray, tuple[int, ...]]:
    """Softmax gate over partitions and the selected index set.

    Ties break toward the lowest partition index. The always-selected
    partition, if configured, is appended when the top-k missed it.
    """
    x_row = as_f64(x_row)
    if x_row.shape != (params.gate_weight.shape[0],):
        raise ShapeError(f"token length {x_row.shape} != gate rows {params.gate_weight.shape[0]}")
    gates = softmax_rows(x_row @ params.gate_weight)
    order = np.argsort(-gates, kind="stable")  # stable sort = lowest index wins ties
    chosen = set(order[: params.top_k].tolist())
    if params.always_selected is not None:
        chosen.add(params.always_selected)
    return gates, tuple(sorted(chosen))


def sse_step(state: SSEState, q_row, k_row, v_row, gates, selected) -> np.ndarray:
    """One scan step: update selected partitions, then read the output.

    Partitions outside `selected` are not touched at all.
    """
    q_row, k_row, v_row = as_f64(q_row), as_f64(k_row), as_f64(v_row)
    update = np.outer(k_row, v_row)
    out = np.zeros(v_row.shape[0])
    for i in selected:
        state.partitions[i] += gates[i] * update
        state.freq[i] += 1
        out += gates[i] * (q_row @ state.partitions[i])
    return out


def sse_forward(x, q, k, v, params: SSEParams) -> SSEResult:
    """Deterministic scan over t = 1..n.

    x drives the gate; q and k pass through the feature map and, when
    enabled, row-wise L2 normalization before the scan.
    """
    x, q, k, v = as_f64(x), as_f64(q), as_f64(k), as_f64(v)
    if q.shape != k.shape or q.shape[0] != v.shape[0] or x.shape[0] != q.shape[0]:
        raise ShapeError(f"x/q/k/v lengths disagree: {x.shape}, {q.shape}, {k.shape}, {v.shape}")
    if params.feature_map == "silu":
        q, k = silu(q), silu(k)
    if params.qk_l2_norm:
        q, k = l2_normalize_rows(q), l2_normalize_rows(k)

    n = q.shape[0]
    num = params.num_partitions
    state = SSEState.zeros(num, q.shape[1], v.shape[1])
    outputs = np.empty((n, v.shape[1]))
    gate_hist = np.empty((n, num))
    freq_hist = np.empty((n, num))
    selections: list[tuple[int, ...]] = []
    for t in range(n):
        gates, selected = sse_gate(x[t], params)
        outputs[t] = sse_step(state, q[t], k[t], v[t], gates, selected)
        gate_hist[t] = gates
        freq_hist[t] = state.freq / (t + 1)  # running selection frequency
        selections.append(selected)
    ensure_finite(outputs, "sse_forward")
    return SSEResult(outputs=outputs, state=state, gates=gate_hist, freqs=freq_hist, selections=selections)
