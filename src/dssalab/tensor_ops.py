"""Minimal dense numeric primitives shared by all modules.

All functions take and return numpy arrays (row-major, float64 unless noted)
and validate that no NaN/Inf leaves an exported operation.
"""

from __future__ import annotations

import warnings

import numpy as np

NEG_INF = float("-inf")


class ShapeError(ValueError):
    """Operand shapes are incompatible."""


class NumericsError(ValueError):
    """An operation produced (or received) NaN/Inf."""


def as_f64(x) -> np.ndarray:
    return np.asarray(x, dtype=np.float64)


def ensure_finite(x: np.ndarray, where: str) -> np.ndarray:
    """Raise NumericsError if x contains NaN or Inf."""
    if not np.all(np.isfinite(x)):
        raise NumericsError(f"non-finite values in {where}")
    return x


def softmax_rows(x, out=None) -> np.ndarray:
    """Row-wise softmax with max-subtraction stabilization.

    Entries of -inf are excluded (weight 0). A row with every entry -inf is
    an error. The result is written to `out` when given, which may be x
    itself.
    """
    x = as_f64(x)
    row_max = np.max(x, axis=-1, keepdims=True)
    if np.any(np.isneginf(row_max)):
        raise NumericsError("softmax row with all positions masked")
    e = np.subtract(x, row_max, out=out)
    np.exp(e, out=e)
    e /= np.sum(e, axis=-1, keepdims=True)
    return ensure_finite(e, "softmax_rows")


def top_k_mask(x, k: int) -> np.ndarray:
    """Bool mask of the k largest entries in each row; ties go to the lower index."""
    order = np.argsort(-as_f64(x), axis=-1, kind="stable")
    mask = np.zeros(order.shape, dtype=bool)
    np.put_along_axis(mask, order[..., :k], True, axis=-1)
    return mask


def rms_norm(x, weight, eps: float = 1e-6) -> np.ndarray:
    """y_j = w_j * x_j / sqrt(mean(x^2) + eps), over the last axis."""
    x = as_f64(x)
    w = as_f64(weight)
    if x.shape[-1] != w.shape[-1] or w.ndim != 1:
        raise ShapeError(f"weight length {w.shape} != row length {x.shape[-1]}")
    ms = np.mean(x * x, axis=-1, keepdims=True)
    return ensure_finite(w * x / np.sqrt(ms + eps), "rms_norm")


def sigmoid(x) -> np.ndarray:
    x = as_f64(x)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def silu(x) -> np.ndarray:
    """x * sigmoid(x)."""
    x = as_f64(x)
    return ensure_finite(x * sigmoid(x), "silu")


def l2_normalize_rows(x) -> np.ndarray:
    """Scale each row to unit L2 norm. Zero rows stay zero and are flagged."""
    x = as_f64(x)
    norms = np.linalg.norm(x, axis=-1, keepdims=True)
    zero = norms == 0.0
    if np.any(zero):
        warnings.warn("zero row(s) in l2_normalize_rows left as zeros", RuntimeWarning)
        norms = np.where(zero, 1.0, norms)
    return ensure_finite(x / norms, "l2_normalize_rows")
