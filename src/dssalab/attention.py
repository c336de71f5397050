"""Reference attention mechanisms used as ground truth.

Full attention, sliding-window attention, and linear attention in both its
parallel-masked and recurrent forms. All are strictly causal, operate on
single-head q/k/v of shape (n, d), and carry no 1/sqrt(d) scaling; callers
that want scaling apply it to q beforehand (see stack.StackConfig).
"""

from __future__ import annotations

import numpy as np

from .tensor_ops import (
    ShapeError,
    as_f64,
    causal_additive_mask,
    ensure_finite,
    softmax_rows,
    window_additive_mask,
)


def _check_qkv(q, k, v) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    q, k, v = as_f64(q), as_f64(k), as_f64(v)
    if q.ndim != 2 or q.shape != k.shape or v.shape[0] != q.shape[0]:
        raise ShapeError(f"q/k/v shapes disagree: {q.shape}, {k.shape}, {v.shape}")
    return q, k, v


def full_attention(q, k, v) -> np.ndarray:
    """Causal softmax attention: o_t = sum_{s<=t} softmax(q_t.k_s) v_s."""
    q, k, v = _check_qkv(q, k, v)
    n = q.shape[0]
    scores = q @ k.T
    probs = softmax_rows(scores, causal_additive_mask(n))
    return ensure_finite(probs @ v, "full_attention")


def swa(q, k, v, window: int) -> np.ndarray:
    """Sliding-window attention: softmax over the last `window` positions."""
    q, k, v = _check_qkv(q, k, v)
    n = q.shape[0]
    scores = q @ k.T
    probs = softmax_rows(scores, window_additive_mask(n, window))
    return ensure_finite(probs @ v, "swa")


def linear_attention_parallel(q, k, v) -> np.ndarray:
    """Masked-product form of linear attention: (Q K^T . M) V, unnormalized."""
    q, k, v = _check_qkv(q, k, v)
    n = q.shape[0]
    weights = q @ k.T
    weights[np.triu_indices(n, k=1)] = 0.0
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
    "full_attention",
    "swa",
    "linear_attention_parallel",
    "linear_attention_recurrent",
]
