"""Mixture of Block Attention.

Keys are grouped into fixed-size blocks, each summarized by mean pooling.
Every query scores the pooled summaries of blocks that have started by its
position, keeps its own block unconditionally plus the best-scoring others,
and runs exact softmax attention over the tokens of the kept blocks under
the usual causal mask.

The attention gathers, for each query, only the keys and values of its
selected blocks, at most top_k * block_size of them, through the row-chunked
core of `attention`. Its cost is O(n * top_k * block_size * d), not
O(n^2 * d). A chunk of queries whose causal prefix is no wider than that
gather has selected every block it can see, so it reads the prefix as full
attention does.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .attention import _attend, _band_keep, _check_qkv
from .tensor_ops import NEG_INF, ShapeError, as_f64, softmax_rows, top_k_mask


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


def num_blocks(n: int, block_size: int) -> int:
    return (n + block_size - 1) // block_size


def block_pool_keys(k, block_size: int) -> np.ndarray:
    """Mean-pool keys per block; the trailing partial block averages only
    the tokens it actually holds."""
    k = as_f64(k)
    if k.ndim != 2:
        raise ShapeError(f"keys must be 2-D, got {k.shape}")
    n, d = k.shape
    full = n // block_size
    pooled = k[: full * block_size].reshape(full, block_size, d).mean(axis=1)
    if full * block_size < n:
        pooled = np.concatenate([pooled, k[full * block_size :].mean(axis=0, keepdims=True)])
    return pooled


def _check_qk(q, k) -> tuple[np.ndarray, np.ndarray]:
    q, k = as_f64(q), as_f64(k)
    if q.ndim != 2 or q.shape != k.shape:
        raise ShapeError(f"queries {q.shape} and keys {k.shape} must be 2-D and of equal shape")
    return q, k


def moba_select(q, pooled, params: MobaParams) -> np.ndarray:
    """Blocks attended by every query, as a bool (n, num_blocks) array.

    Query t sees only blocks 0..t//block_size; later ones are masked before
    the gating softmax. The query's own block always occupies one slot; the
    remaining top_k - 1 slots go to the best-scoring other visible blocks,
    ties toward the lower block index.
    """
    q = as_f64(q)
    current = np.arange(q.shape[0]) // params.block_size
    visible = np.arange(pooled.shape[0]) <= current[:, None]
    gates = softmax_rows(np.where(visible, q @ pooled.T, NEG_INF))
    gates[np.arange(q.shape[0]), current] = np.inf  # own block ranks first
    # masked blocks (gate 0) rank after every visible block, lower index
    # first on ties, so they only take slots no visible block can fill
    return top_k_mask(gates, params.top_k) & visible


def moba_selections(q, k, params: MobaParams) -> list[BlockSelection]:
    q, k = _check_qk(q, k)
    selected = moba_select(q, block_pool_keys(k, params.block_size), params)
    return [
        BlockSelection(query_index=t, blocks=tuple(np.flatnonzero(row).tolist()))
        for t, row in enumerate(selected)
    ]


def moba_forward(q, k, v, params: MobaParams) -> np.ndarray:
    """Exact softmax attention restricted to each query's selected blocks."""
    q, k, v = _check_qkv(q, k, v)
    n, b = q.shape[0], params.block_size
    selected = moba_select(q, block_pool_keys(k, b), params)
    nb = selected.shape[1]
    slots = min(params.top_k, nb)
    # each query's selected blocks first, in ascending order; a query that
    # selects fewer than `slots` sees fewer blocks, so its spare slots hold
    # future blocks, which the causal mask removes
    order = np.argsort(~selected, axis=1, kind="stable")[:, :slots]
    if slots * b < n:  # some chunk gathers: lay keys and values out in blocks
        k, v = (np.pad(x, ((0, nb * b - n), (0, 0))).reshape(nb, b, -1) for x in (k, v))

    def keys(s, e):
        if slots * b >= e:
            # no query here sees more blocks than it selects: read the prefix
            return slice(0, e), _band_keep(s, e, 0, e)
        ids = order[s:e]
        positions = ids[:, :, None] * b + np.arange(b)
        return ids, (positions <= np.arange(s, e)[:, None, None]).reshape(e - s, -1)

    return _attend(q, k, v, keys)


def activation_ratio(n: int, block_size: int, top_k: int) -> float:
    """Fraction of the key space a full-width query can touch."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return min(1.0, top_k * block_size / n)
