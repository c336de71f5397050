"""Reference attention mechanisms used as ground truth.

Full attention, sliding-window attention, and linear attention in both its
parallel-masked and recurrent forms. All are strictly causal and carry no
1/sqrt(d) scaling; callers that want scaling apply it to q beforehand (see
stack.StackConfig). The linear forms and the `masked_attention` oracle take
single-head q/k/v of shape (n, d). `full_attention` and `swa` take
`n_heads` = h heads side by side, q/k/v of shape (n, h * d), head i in
columns [i * d, (i + 1) * d), and return (n, h * d_v) in the same layout;
h = 1 is the single-head call.

The softmax mechanisms share one loop, `_windowed`, over chunks of at most
ROW_CHUNK query rows of every head, never an n x n array: full attention
hands a chunk its causal prefix, the sliding window a band of
chunk + window - 1 keys, under a keep mask that is a view of one band built
per call. The heads are strided views (tensor_ops.split_heads), so BLAS
reads each head in place. A chunk takes tensor_ops.exp_rows of its scores
and normalises after one GEMM against [V | 1], which gives P.V and the row
sums together (FlashAttention-2, Dao, arXiv 2307.08691). MoBA runs its
leading rows, which select every block they can see, through the same loop.
A chunk holds every row's keys, so no key tile needs online rescaling.

`masked_attention` under the dense `causal_keep` and `window_keep` masks is
the oracle the core is tested against.
"""

from __future__ import annotations

import numpy as np

from .tensor_ops import NEG_INF, NumericsError, ShapeError, as_f64, ensure_finite, exp_rows, softmax_rows, split_heads

# query rows per chunk of the softmax core: a chunk's score array is at most
# ROW_CHUNK x (keys it may see), never n x n. Picked by measurement over
# 32..256 on the stack at n=256 (d=8, two heads) and on single heads at
# n=2048 and 4096 (d=16): 64 to 128 were fastest on both, 64 with the least
# memory
ROW_CHUNK = 64


def _check_qkv(q, k, v) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    q, k, v = as_f64(q), as_f64(k), as_f64(v)
    if q.ndim != 2 or q.shape != k.shape or v.ndim != 2 or v.shape[0] != q.shape[0]:
        raise ShapeError(f"q/k/v shapes disagree: {q.shape}, {k.shape}, {v.shape}")
    # a +inf key that every query scores at -inf weighs 0 and leaves the
    # output finite, so the inputs are checked, not only the output
    if not (np.isfinite(q).all() and np.isfinite(k).all() and np.isfinite(v).all()):
        raise NumericsError("q, k or v holds a NaN or an infinity")
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
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused below
        scores = q @ k.T
        np.copyto(scores, NEG_INF, where=~keep)
        return ensure_finite(softmax_rows(scores) @ v, "masked_attention")


def _windowed(q, k, v, window: int) -> np.ndarray:
    """Heads (h, n, d) in, (n, h * d_v) out, heads side by side; each chunk
    divides its P.V by the row sums in the last column of P.[V | 1]."""
    # band[i, j] keeps key s - w + 1 + j for query s + i, whatever the chunk
    # start s; a chunk reads keys lo..e-1, the band's columns from off on
    h, n, d_v = v.shape
    w = max(1, min(window, n))
    band = np.tri(ROW_CHUNK, ROW_CHUNK + w - 1, k=w - 1, dtype=bool)
    band &= ~np.tri(ROW_CHUNK, ROW_CHUNK + w - 1, k=-1, dtype=bool)
    v_ones = np.concatenate([v, np.ones((h, n, 1))], axis=2)
    out = np.empty((n, h * d_v))
    (heads,) = split_heads(h, out)
    # a score that overflows to +inf is refused by exp_rows, one that
    # reaches P.V by ensure_finite, so numpy need not warn
    with np.errstate(over="ignore", invalid="ignore"):
        for s in range(0, n, ROW_CHUNK):
            e = min(s + ROW_CHUNK, n)
            lo = max(0, s - w + 1)
            off = lo - s + w - 1
            scores = q[:, s:e] @ k[:, lo:e].swapaxes(-1, -2)
            np.copyto(scores, NEG_INF, where=~band[: e - s, off : off + e - lo])
            exp_rows(scores)
            pv = scores @ v_ones[:, lo:e]
            heads[:, s:e] = pv[..., :-1] / pv[..., -1:]
    return ensure_finite(out, "attention")


def full_attention(q, k, v, *, n_heads: int = 1) -> np.ndarray:
    """Causal softmax attention: o_t = sum_{s<=t} softmax(q_t.k_s) v_s, per
    head."""
    q, k, v = split_heads(n_heads, *_check_qkv(q, k, v))
    return _windowed(q, k, v, q.shape[1])


def swa(q, k, v, window: int, *, n_heads: int = 1) -> np.ndarray:
    """Sliding-window attention: softmax over the last `window` positions,
    per head."""
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    return _windowed(*split_heads(n_heads, *_check_qkv(q, k, v)), window)


def linear_attention_parallel(q, k, v) -> np.ndarray:
    """Masked-product form of linear attention: (Q K^T . M) V, unnormalized."""
    q, k, v = _check_qkv(q, k, v)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused below
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
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused below
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
