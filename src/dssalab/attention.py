"""Reference attention mechanisms used as ground truth.

Full attention, sliding-window attention, and linear attention in both its
parallel-masked and recurrent forms. All are strictly causal, operate on
single-head q/k/v of shape (n, d), and carry no 1/sqrt(d) scaling; callers
that want scaling apply it to q beforehand (see stack.StackConfig).

The softmax mechanisms are `masked_attention` under a boolean keep mask:
`causal_keep` for full attention, `window_keep` for the sliding window, and
the block selection for MoBA (see moba.moba_forward).
"""

from __future__ import annotations

import numpy as np

from .tensor_ops import NEG_INF, ShapeError, as_f64, ensure_finite, softmax_rows


def _check_qkv(q, k, v) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    q, k, v = as_f64(q), as_f64(k), as_f64(v)
    if q.ndim != 2 or q.shape != k.shape or v.shape[0] != q.shape[0]:
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


def full_attention(q, k, v) -> np.ndarray:
    """Causal softmax attention: o_t = sum_{s<=t} softmax(q_t.k_s) v_s."""
    q, k, v = _check_qkv(q, k, v)
    return masked_attention(q, k, v, causal_keep(q.shape[0]))


def swa(q, k, v, window: int) -> np.ndarray:
    """Sliding-window attention: softmax over the last `window` positions."""
    q, k, v = _check_qkv(q, k, v)
    return masked_attention(q, k, v, window_keep(q.shape[0], window))


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
