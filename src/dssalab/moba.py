"""Mixture of Block Attention.

Keys are grouped into fixed-size blocks, each summarized by mean pooling.
Every query scores the pooled summaries of blocks that have started by its
position by the raw dot product q.pooled, keeps its own block
unconditionally plus the best-scoring others (ties to the lower block
index), and runs exact softmax attention over the tokens of the kept
blocks under the usual causal mask. The rows of one query block see the
same blocks, so they are scored together against those alone.

The query rows split once, at a multiple m of attention.ROW_CHUNK. Rows
before m have a causal prefix no wider than top_k * block_size keys, so
they have selected every block they can see and run through full
attention's own chunk loop. Only rows from m on are routed, and they run
block-major, as in MoBA's reference implementation (Lu et al., arXiv
2502.13189): the rows that took key block j form one dense GEMM against
it, with the causal triangle only on the rows inside block j. Each row
keeps one partial softmax per selected block, tensor_ops.exp_rows and a
GEMM against [V | 1] as in full attention, merged by log-sum-exp (Dao et
al., arXiv 2205.14135). The work is O(n * top_k * block_size * d), not
O(n^2 * d); the partials take O(n * top_k * d) memory, and no score array
holds more than ROW_CHUNK x n entries, as in full attention.

`moba_forward` takes n_heads = h heads side by side, q/k/v of shape
(n, h * d). Rows [0, m) of every head run through one chunk loop; the rows
from m on are routed head by head, each head on its own q and k.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .attention import ROW_CHUNK, _check_qkv, _windowed
from .tensor_ops import NEG_INF, ShapeError, as_f64, ensure_finite, exp_rows, split_heads, top_k_mask


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


def moba_select(q, pooled, params: MobaParams, start: int = 0) -> np.ndarray:
    """Blocks attended by query rows start, start + 1, ..., as a bool
    (rows, num_blocks) array.

    Query t sees only blocks 0..t//block_size, so the rows of one query
    block j are scored against pooled[:j + 1] alone, by raw q.pooled
    scores. The query's own block always occupies one slot; the remaining
    top_k - 1 slots go to the best-scoring other visible blocks, ties
    toward the lower block index. A score that overflows to an infinity or
    NaN, which finite q and keys can give, raises NumericsError.
    """
    q = as_f64(q)
    b = params.block_size
    selected = np.zeros((q.shape[0], pooled.shape[0]), dtype=bool)
    lo = 0
    # an overflowing score is refused by ensure_finite, so numpy need not warn
    with np.errstate(over="ignore", invalid="ignore"):
        while lo < q.shape[0]:  # rows lo..hi-1 lie in query block j
            j = (start + lo) // b
            hi = min((j + 1) * b - start, q.shape[0])
            scores = ensure_finite(q[lo:hi] @ pooled[: j + 1].T, "moba_select")  # top_k_mask takes no -inf
            scores[:, j] = np.inf  # own block ranks first
            selected[lo:hi, : j + 1] = top_k_mask(scores, params.top_k)
            lo = hi
    return selected


def moba_selections(q, k, params: MobaParams) -> list[BlockSelection]:
    q, k, _ = _check_qkv(q, k, k)
    selected = moba_select(q, block_pool_keys(k, params.block_size), params)
    return [
        BlockSelection(query_index=t, blocks=tuple(np.flatnonzero(row).tolist()))
        for t, row in enumerate(selected)
    ]


def _sparse_rows(q, k, v, selected, m: int, b: int, slots: int) -> np.ndarray:
    """Output rows m, m + 1, ...: row m + i attends the blocks selected[i]
    holds, at most `slots` of them, each up to its own position.

    Block-major: the rows that take key block j form one dense GEMM against
    it, split so that a score array never holds more than ROW_CHUNK x n
    entries, full attention's largest chunk. Rows inside block j keep only
    the keys up to their own position; rows that took j as an earlier block
    see all of it. Each (row, slot) keeps the partial softmax of one block:
    exp_rows on the transposed scores gives its max, one GEMM against
    [V | 1] its P.V and exp-sum. A row's slots merge by log-sum-exp.
    """
    rows, nb = selected.shape
    blocks, picks = np.nonzero(selected.T)  # block-major, rows ascending in a block
    bounds = np.searchsorted(blocks, np.arange(nb + 1))
    t = picks + m
    v_ones = np.concatenate([v, np.ones((len(v), 1))], axis=1)  # P.V and the exp-sum in one GEMM
    filled = np.zeros(rows, dtype=np.intp)  # slots each row has filled so far
    top = np.full((rows, slots), NEG_INF)  # a spare slot weighs exp(-inf) = 0
    part = np.zeros((rows, slots, v_ones.shape[1]))
    step = ROW_CHUNK * len(k) // b
    for j in range(nb):
        lo, hi = j * b, min((j + 1) * b, len(k))
        for s in range(bounds[j], bounds[j + 1], step):
            e = min(s + step, bounds[j + 1])
            i = picks[s:e]
            slot = filled[i]
            filled[i] += 1
            # keys down, queries across: the reductions run over whole rows
            scores = k[lo:hi] @ q[t[s:e]].T
            own = np.searchsorted(t[s:e], hi - 1)  # rows ending inside block j come first
            np.copyto(scores[:, :own], NEG_INF, where=np.arange(lo, hi)[:, None] > t[s : s + own])
            top[i, slot] = exp_rows(scores.T)[:, 0]
            part[i, slot] = scores.T @ v_ones[lo:hi]
    exp_rows(top)  # each slot's weight against the row's largest max
    merged = np.einsum("rs,rsd->rd", top, part)
    return merged[:, :-1] / merged[:, -1:]


def moba_forward(q, k, v, params: MobaParams, *, n_heads: int = 1) -> np.ndarray:
    """Exact softmax attention restricted to each query's selected blocks,
    per head: q/k/v hold n_heads heads side by side, (n, h * d), and the
    result is (n, h * d_v) in the same layout. Each head routes on its own
    q and k."""
    q, k, v = split_heads(n_heads, *_check_qkv(q, k, v))
    n, b = q.shape[1], params.block_size
    slots = min(params.top_k, num_blocks(n, b))
    # rows before m see no more blocks than they select: they attend fully
    m = n if slots * b >= n else slots * b // ROW_CHUNK * ROW_CHUNK
    out = np.empty((n, n_heads * v.shape[2]))
    out[:m] = _windowed(q[:, :m], k[:, :m], v[:, :m], m)  # checked there
    (heads,) = split_heads(n_heads, out)
    for qh, kh, vh, oh in zip(q, k, v, heads):
        selected = moba_select(qh[m:], block_pool_keys(kh, b), params, m)  # zero rows when m == n
        if m < n:
            # a score past float64 is refused by exp_rows or ensure_finite, so numpy need not warn
            with np.errstate(over="ignore", invalid="ignore"):
                oh[m:] = ensure_finite(_sparse_rows(qh, kh, vh, selected, m, b, slots), "attention")
    return out


def activation_ratio(n: int, block_size: int, top_k: int) -> float:
    """Fraction of the key space a full-width query can touch."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    touched = top_k * block_size  # checked before the division: a huge quotient is no float
    return 1.0 if touched >= n else touched / n
