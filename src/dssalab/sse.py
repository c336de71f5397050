"""Sparse State Expansion attention.

Linear attention whose state is split into N partitions with shared
parameters. At each step a softmax gate over the token representation picks
the top-k partitions; only those receive the rank-1 state update, and the
output reads back the gate-weighted selected partitions.

The scan runs in chunkwise-parallel form (Yang et al., arXiv 2312.06635):
over chunks of CHUNK gate-expanded rows, each chunk's output is its causal
intra-chunk product plus its read of the state carried from earlier chunks,
and the chunk then adds its keys and values to that state. The per-token
recurrence `attention.linear_attention_recurrent` is the reference it is
tested against. Heads side by side share one gate and run one scan, each
with its own state (see sse_forward).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor_ops import (
    ShapeError, as_f64, ensure_finite, silu, softmax_rows, split_heads, top_k_mask,
)

FEATURE_MAPS = ("identity", "silu")

# gate-expanded rows per chunk of the scan. The intra-chunk product grows
# with CHUNK per row, and each chunk is one Python step; 64 was the fastest
# of 16..256 both at the stack's n=256, N*d=32 and at n=4096, N*d=64
CHUNK = 64

# causal mask of a full chunk; a shorter last chunk takes its leading corner
_CAUSAL = np.tri(CHUNK, dtype=bool)


@dataclass(frozen=True)
class SSEParams:
    """Gating and preprocessing configuration.

    gate_weight has shape (d_model, num_partitions).
    """

    num_partitions: int
    top_k: int
    gate_weight: np.ndarray
    feature_map: str = "identity"

    def __post_init__(self):
        w = as_f64(self.gate_weight)
        object.__setattr__(self, "gate_weight", w)
        if not 1 <= self.top_k <= self.num_partitions:
            raise ValueError(f"need 1 <= top_k <= num_partitions, got {self.top_k}/{self.num_partitions}")
        if w.ndim != 2 or w.shape[1] != self.num_partitions:
            raise ShapeError(f"gate_weight shape {w.shape} != (d_model, {self.num_partitions})")
        if self.feature_map not in FEATURE_MAPS:
            raise ValueError(f"unknown feature_map {self.feature_map!r}")


@dataclass
class SSEResult:
    outputs: np.ndarray  # (n, d_v)
    gates: np.ndarray  # (n, N) softmax gates e_t
    freqs: np.ndarray  # (n, N) running selection frequency after step t
    selected: np.ndarray  # (n, N) bool, partitions updated and read at step t


def sse_gate(x, params: SSEParams) -> tuple[np.ndarray, np.ndarray]:
    """Softmax gates over partitions and the selection, for every token row.

    Returns gates (n, N) and a bool selection (n, N) of the top_k largest
    gates in each row. Ties break toward the lowest partition index.
    """
    x = as_f64(x)
    if x.ndim != 2 or x.shape[1] != params.gate_weight.shape[0]:
        raise ShapeError(f"token rows {x.shape} do not match gate rows {params.gate_weight.shape[0]}")
    gates = softmax_rows(x @ params.gate_weight)
    return gates, top_k_mask(gates, params.top_k)


def _chunked_scan(q, k, v) -> np.ndarray:
    """o_t = q_t @ sum_{s<=t} outer(k_s, v_s) per head, on (h, n, .) heads,
    CHUNK rows at a time: the chunk reads the state carried from earlier
    chunks, then adds to it. Returns (n, h * d_v), heads side by side."""
    h, n, d_v = v.shape
    state = np.zeros((h, q.shape[2], d_v))
    out = np.empty((n, h * d_v))
    (heads,) = split_heads(h, out)
    for s in range(0, n, CHUNK):
        qc, kc, vc = q[:, s : s + CHUNK], k[:, s : s + CHUNK], v[:, s : s + CHUNK]
        causal = _CAUSAL[: qc.shape[1], : qc.shape[1]]
        kt = kc.swapaxes(-1, -2)
        heads[:, s : s + CHUNK] = np.where(causal, qc @ kt, 0.0) @ vc + qc @ state
        state += kt @ vc
    return out


def sse_forward(x, q, k, v, params: SSEParams, *, n_heads: int = 1) -> SSEResult:
    """Deterministic causal scan over t = 1..n, in chunks of CHUNK rows.

    x drives the gate; q and k pass through the feature map (identity or
    silu, elementwise). With a_t the gates of the top_k selected
    partitions (0 elsewhere), the scan is linear attention on the
    gate-expanded rows a_t (x) q_t and a_t (x) k_t: block i of the state
    holds partition i and only receives a_{s,i}-weighted updates. Row t
    reads every update up to and including its own. The chunked sums
    differ from the per-token recurrence in rounding only.

    q/k/v hold n_heads heads side by side, (n, h * d), and the outputs are
    (n, h * d_v) in the same layout. The heads share one gate, routed once;
    each head keeps its own state.
    """
    x, q, k, v = as_f64(x), as_f64(q), as_f64(k), as_f64(v)
    if (
        x.ndim != 2 or q.ndim != 2 or v.ndim != 2 or q.shape != k.shape
        or q.shape[0] != v.shape[0] or x.shape[0] != q.shape[0]
    ):
        raise ShapeError(f"x/q/k/v shapes disagree: {x.shape}, {q.shape}, {k.shape}, {v.shape}")
    q, k, v = split_heads(n_heads, q, k, v)
    if params.feature_map == "silu":
        q, k = silu(q), silu(k)

    gates, selected = sse_gate(x, params)
    a = np.where(selected, gates, 0.0)[:, :, None]
    n, d = q.shape[1:]
    expanded = (n_heads, n, params.num_partitions * d)  # row t of a head is a_t (x) q_t, partition-major
    outputs = _chunked_scan(*((a * t[:, :, None, :]).reshape(expanded) for t in (q, k)), v)
    freqs = np.cumsum(selected, axis=0) / np.arange(1, n + 1)[:, None]
    return SSEResult(outputs=ensure_finite(outputs, "sse_forward"), gates=gates, freqs=freqs, selected=selected)
