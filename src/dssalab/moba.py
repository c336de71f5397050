"""Mixture of Block Attention.

Keys are grouped into fixed-size blocks, each summarized by mean pooling.
Every query scores the pooled summaries of blocks that have started by its
position, keeps its own block unconditionally plus the best-scoring others,
and runs exact softmax attention over the tokens of the kept blocks under
the usual causal mask.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor_ops import NEG_INF, ShapeError, as_f64, ensure_finite, softmax_rows


@dataclass(frozen=True)
class MobaParams:
    block_size: int
    top_k: int

    def __post_init__(self):
        if self.block_size < 1:
            raise ValueError(f"block_size must be >= 1, got {self.block_size}")
        if self.top_k < 1:
            raise ValueError(f"top_k must be >= 1, got {self.top_k}")


@dataclass
class BlockSelection:
    """Selected blocks for one query position."""

    query_index: int
    blocks: tuple[int, ...]

    def to_json(self) -> dict:
        return {"query_index": self.query_index, "blocks": list(self.blocks)}


def num_blocks(n: int, block_size: int) -> int:
    return (n + block_size - 1) // block_size


def block_pool_keys(k, block_size: int) -> np.ndarray:
    """Mean-pool keys per block; the trailing partial block averages only
    the tokens it actually holds."""
    k = as_f64(k)
    if k.ndim != 2:
        raise ShapeError(f"keys must be 2-D, got {k.shape}")
    n, d = k.shape
    nb = num_blocks(n, block_size)
    pooled = np.empty((nb, d))
    for b in range(nb):
        pooled[b] = k[b * block_size : min((b + 1) * block_size, n)].mean(axis=0)
    return pooled


def moba_select(q_row, pooled, t: int, params: MobaParams) -> tuple[int, ...]:
    """Blocks attended by the query at position t.

    Only blocks 0..t//block_size are visible; later ones are dropped before
    the gating softmax. The query's own block always occupies one slot; the
    remaining top_k - 1 slots go to the best-scoring other visible blocks,
    ties toward the lower block index. Returned sorted ascending.
    """
    q_row = as_f64(q_row)
    current = t // params.block_size
    visible = current + 1
    scores = softmax_rows(q_row @ pooled[:visible].T)
    chosen = {current}
    order = np.argsort(-scores, kind="stable")  # stable sort = lowest index wins ties
    for b in order:
        if len(chosen) >= params.top_k:
            break
        chosen.add(int(b))
    return tuple(sorted(chosen))


def moba_selections(q, k, params: MobaParams) -> list[BlockSelection]:
    q, k = as_f64(q), as_f64(k)
    pooled = block_pool_keys(k, params.block_size)
    return [
        BlockSelection(query_index=t, blocks=moba_select(q[t], pooled, t, params))
        for t in range(q.shape[0])
    ]


def moba_forward(q, k, v, params: MobaParams) -> np.ndarray:
    """Exact softmax attention restricted to each query's selected blocks."""
    q, k, v = as_f64(q), as_f64(k), as_f64(v)
    if q.shape != k.shape or k.shape[0] != v.shape[0]:
        raise ShapeError(f"q/k/v shapes disagree: {q.shape}, {k.shape}, {v.shape}")
    n = q.shape[0]
    pooled = block_pool_keys(k, params.block_size)
    out = np.empty((n, v.shape[1]))
    for t in range(n):
        blocks = moba_select(q[t], pooled, t, params)
        mask = np.full(n, NEG_INF)
        for b in blocks:
            lo, hi = b * params.block_size, min((b + 1) * params.block_size, n)
            mask[lo:hi] = 0.0
        mask[t + 1 :] = NEG_INF  # causal cut inside the current block
        weights = softmax_rows(q[t] @ k.T, additive_mask=mask)
        out[t] = weights @ v
    ensure_finite(out, "moba_forward")
    return out


def activation_ratio(n: int, block_size: int, top_k: int) -> float:
    """Fraction of the key space a full-width query can touch."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return min(1.0, top_k * block_size / n)
