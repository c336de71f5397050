"""Reference attention mechanisms used as ground truth.

Full attention, sliding-window attention, and linear attention in both its
parallel-masked and recurrent forms. All are strictly causal, operate on
single-head q/k/v of shape (n, d), and carry no 1/sqrt(d) scaling; callers
that want scaling apply it to q beforehand (see stack.StackConfig).

The softmax mechanisms share one core, `_attend`, which works through the
query rows in chunks of at most ROW_CHUNK rows. Each chunk scores its rows
against the keys it may see, under a boolean keep mask, and never builds an
n x n array: full attention takes the causal prefix of the chunk, the
sliding window a band of chunk + window - 1 keys, and MoBA each row's
selected blocks (see moba.moba_forward). A chunk holds every row's keys, so
no online-softmax rescaling across key tiles is needed.

`masked_attention` under the dense `causal_keep` and `window_keep` masks is
the oracle the core is tested against.
"""

from __future__ import annotations

import numpy as np

from .tensor_ops import NEG_INF, ShapeError, as_f64, ensure_finite, softmax_rows

# query rows per chunk of the softmax core: a chunk's score array is at most
# ROW_CHUNK x (keys it may see), never n x n
ROW_CHUNK = 256


def _check_qkv(q, k, v) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    q, k, v = as_f64(q), as_f64(k), as_f64(v)
    if q.ndim != 2 or q.shape != k.shape or v.ndim != 2 or v.shape[0] != q.shape[0]:
        raise ShapeError(f"q/k/v shapes disagree: {q.shape}, {k.shape}, {v.shape}")
    return q, k, v


def causal_keep(n: int) -> np.ndarray:
    """n x n bool: query t keeps key s iff s <= t."""
    return np.tri(n, dtype=bool)


def window_keep(n: int, window: int) -> np.ndarray:
    """Causal keep mask further restricted to the last `window` positions."""
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    return np.tri(n, dtype=bool) & ~np.tri(n, k=-window, dtype=bool)


def masked_attention(q, k, v, keep) -> np.ndarray:
    """Softmax attention where query t attends key s iff keep[t, s].

    Every query must keep at least one key.
    """
    q, k, v = _check_qkv(q, k, v)
    n = q.shape[0]
    if keep.shape != (n, n):
        raise ShapeError(f"keep mask shape {keep.shape} != ({n}, {n})")
    scores = q @ k.T
    np.copyto(scores, NEG_INF, where=~keep)
    return ensure_finite(softmax_rows(scores) @ v, "masked_attention")


def _band_keep(s: int, e: int, lo: int, window: int) -> np.ndarray:
    """Keep mask of queries s..e-1 over keys lo..e-1: query t keeps key j
    iff t - window < j <= t."""
    rows, cols = e - s, e - lo
    return np.tri(rows, cols, k=s - lo, dtype=bool) & ~np.tri(rows, cols, k=s - lo - window, dtype=bool)


def _attend(q, k, v, keys) -> np.ndarray:
    """Softmax attention over the query rows in chunks of at most ROW_CHUNK.

    keys(s, e) names the keys of query rows s..e-1 as (cols, keep). cols is
    a slice of key rows those queries share, or an int array (e - s, slots)
    that gives each query its own blocks of keys; k and v then come shaped
    (num_blocks, block, d), and a slice indexes their rows flattened. keep
    is the bool mask over the keys named, slot after slot. Every query must
    keep at least one key.
    """
    out = np.empty((q.shape[0], v.shape[-1]))
    for s in range(0, q.shape[0], ROW_CHUNK):
        e = min(s + ROW_CHUNK, q.shape[0])
        out[s:e] = _attend_rows(q[s:e], k, v, *keys(s, e))
    return ensure_finite(out, "attention")


def _attend_rows(q, k, v, cols, keep) -> np.ndarray:
    # one chunk of _attend; its arrays are freed before the next chunk's
    if isinstance(cols, slice):
        scores = q @ k.reshape(-1, k.shape[-1])[cols].T
    else:
        scores = np.concatenate([np.matmul(k[ids], q[:, :, None])[..., 0] for ids in cols.T], axis=1)
    np.copyto(scores, NEG_INF, where=~keep)
    weights = softmax_rows(scores, out=scores)
    if isinstance(cols, slice):
        return weights @ v.reshape(-1, v.shape[-1])[cols]
    per_slot = weights.reshape(len(q), cols.shape[1], 1, -1)
    return sum(np.matmul(per_slot[:, j], v[ids]) for j, ids in enumerate(cols.T))[:, 0]


def _windowed(q, k, v, window: int) -> np.ndarray:
    # each chunk reads the keys from window - 1 before its first row to its last
    def keys(s, e):
        lo = max(0, s - window + 1)
        return slice(lo, e), _band_keep(s, e, lo, window)

    return _attend(q, k, v, keys)


def full_attention(q, k, v) -> np.ndarray:
    """Causal softmax attention: o_t = sum_{s<=t} softmax(q_t.k_s) v_s."""
    q, k, v = _check_qkv(q, k, v)
    return _windowed(q, k, v, q.shape[0])


def swa(q, k, v, window: int) -> np.ndarray:
    """Sliding-window attention: softmax over the last `window` positions."""
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    q, k, v = _check_qkv(q, k, v)
    return _windowed(q, k, v, window)


def linear_attention_parallel(q, k, v) -> np.ndarray:
    """Masked-product form of linear attention: (Q K^T . M) V, unnormalized."""
    q, k, v = _check_qkv(q, k, v)
    weights = np.where(causal_keep(q.shape[0]), q @ k.T, 0.0)
    return ensure_finite(weights @ v, "linear_attention_parallel")


def linear_attention_recurrent(q, k, v) -> np.ndarray:
    """Recurrent form: state <- state + outer(k_t, v_t); o_t = q_t @ state.

    The state is updated before the read, so the current token is included.
    """
    q, k, v = _check_qkv(q, k, v)
    n, d = q.shape
    d_v = v.shape[1]
    state = np.zeros((d, d_v))
    out = np.empty((n, d_v))
    for t in range(n):
        state += np.outer(k[t], v[t])
        out[t] = q[t] @ state
    return ensure_finite(out, "linear_attention_recurrent")


__all__ = [
    "causal_keep",
    "window_keep",
    "masked_attention",
    "full_attention",
    "swa",
    "linear_attention_parallel",
    "linear_attention_recurrent",
]
