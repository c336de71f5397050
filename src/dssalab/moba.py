"""Mixture of Block Attention.

Keys are grouped into fixed-size blocks, each summarized by mean pooling.
Every query scores the pooled summaries of blocks that have started by its
position, keeps its own block unconditionally plus the best-scoring others,
and runs exact softmax attention over the tokens of the kept blocks under
the usual causal mask.

The attention runs over attention.ROW_CHUNK query rows at a time. The
leading chunks whose causal prefix is no wider than top_k * block_size keys
have selected every block they can see, so they run through full
attention's own chunk loop. The chunks after them gather each query's
selected blocks from keys and values laid out in blocks, at
O(n * top_k * block_size * d), not O(n^2 * d).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .attention import ROW_CHUNK, _check_qkv, _windowed
from .tensor_ops import NEG_INF, ShapeError, as_f64, ensure_finite, softmax_rows, top_k_mask


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
    if q.shape[0] == 0:  # no query to route; softmax_rows needs a row
        return np.zeros((0, pooled.shape[0]), dtype=bool)
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


def _gather_rows(q, k, v, ids, s: int) -> np.ndarray:
    """Query row s + i attends blocks ids[i] of k, v laid out (num_blocks, b,
    d), masked past its position; so are spare slots' future blocks."""
    rows, b = len(q), k.shape[1]
    positions = ids[:, :, None] * b + np.arange(b)
    keep = (positions <= np.arange(s, s + rows)[:, None, None]).reshape(rows, -1)
    # one (rows, b, d) gather per slot, never all rows' top_k * b keys at once
    scores = np.concatenate([np.matmul(k[slot], q[:, :, None])[..., 0] for slot in ids.T], axis=1)
    np.copyto(scores, NEG_INF, where=~keep)
    weights = softmax_rows(scores, out=scores).reshape(rows, ids.shape[1], 1, b)
    return sum(np.matmul(weights[:, j], v[slot]) for j, slot in enumerate(ids.T))[:, 0]


def moba_forward(q, k, v, params: MobaParams) -> np.ndarray:
    """Exact softmax attention restricted to each query's selected blocks."""
    q, k, v = _check_qkv(q, k, v)
    n, b = q.shape[0], params.block_size
    selected = moba_select(q, block_pool_keys(k, b), params)
    nb = selected.shape[1]
    slots = min(params.top_k, nb)
    # rows before m see no more blocks than they select: they attend fully
    m = n if slots * b >= n else slots * b // ROW_CHUNK * ROW_CHUNK
    out = np.empty((n, v.shape[1]))
    out[:m] = _windowed(q[:m], k[:m], v[:m], m)
    if m < n:
        # each query's selected blocks first, in ascending order; a query that
        # selects fewer than `slots` sees fewer blocks, so its spare slots hold
        # future blocks, which the causal mask removes
        order = np.argsort(~selected[m:], axis=1, kind="stable")[:, :slots]
        k_blocks, v_blocks = (np.pad(x, ((0, nb * b - n), (0, 0))).reshape(nb, b, -1) for x in (k, v))
        for s in range(m, n, ROW_CHUNK):
            e = min(s + ROW_CHUNK, n)
            out[s:e] = _gather_rows(q[s:e], k_blocks, v_blocks, order[s - m : e - m], s)
    return ensure_finite(out, "attention")


def activation_ratio(n: int, block_size: int, top_k: int) -> float:
    """Fraction of the key space a full-width query can touch."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return min(1.0, top_k * block_size / n)
