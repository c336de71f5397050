"""Minimal dense numeric primitives shared by all modules.

Arrays are row-major, float64 unless noted. A public function checks once
that no NaN/Inf leaves it; exp_rows, under every softmax, by its row maxima.
"""

from __future__ import annotations

import numpy as np

NEG_INF = float("-inf")
RMS_EPS = 1e-6


class ShapeError(ValueError):
    """Operand shapes are incompatible."""


class NumericsError(ValueError):
    """An operation produced (or received) NaN/Inf."""


def as_f64(x) -> np.ndarray:
    return np.asarray(x, dtype=np.float64)


def split_heads(n_heads: int, *xs: np.ndarray) -> list[np.ndarray]:
    """2-D (n, h * d) arrays as (h, n, d), head i being columns
    [i * d, (i + 1) * d): strided views, no copy, of arrays whose rows are
    contiguous. Each width must split into n_heads >= 1 equal parts
    (ShapeError)."""
    if n_heads < 1 or any(x.shape[1] % n_heads for x in xs):
        raise ShapeError(f"widths {[x.shape[1] for x in xs]} do not split into n_heads = {n_heads} heads")
    return [x.reshape(x.shape[0], n_heads, x.shape[1] // n_heads).transpose(1, 0, 2) for x in xs]


def ensure_finite(x: np.ndarray, where: str) -> np.ndarray:
    """Raise NumericsError if x contains NaN or Inf."""
    if not np.all(np.isfinite(x)):
        raise NumericsError(f"non-finite values in {where}")
    return x


def exp_rows(x: np.ndarray) -> np.ndarray:
    """exp(x - row max) in place over the last axis of float64 x, a strided
    view or not, -inf becoming 0; returns the row maxima (keepdims).

    The row maxima alone are checked: a NaN, a +inf or a row of all -inf
    makes one non-finite (NumericsError). Finite maxima give exp arguments
    <= 0, one of them 0, so row sums in [1, cols] and a finite softmax.
    """
    row_max = np.max(x, axis=-1, keepdims=True)
    if not np.isfinite(row_max).all():
        raise NumericsError("softmax row with a NaN, a +inf, or every position masked")
    np.subtract(x, row_max, out=x)
    np.exp(x, out=x)
    return row_max


def softmax_rows(x) -> np.ndarray:
    """Row-wise softmax on a copy of x: exp_rows, divided by the row sums."""
    e = np.array(x, dtype=np.float64)
    exp_rows(e)
    return np.divide(e, np.sum(e, axis=-1, keepdims=True), out=e)


def top_k_mask(x, k: int) -> np.ndarray:
    """Bool mask of the k largest entries in each row of a 2-D x; ties go to
    the lower index. Contract, not checked: x holds no NaN and no -inf
    (+inf is fine).

    k rounds of argmax, each taking a row's first largest untaken entry: a
    taken entry is set to -inf, below every untaken one.
    """
    x = np.array(x, dtype=np.float64)  # a copy: taken entries are overwritten
    mask = np.zeros(x.shape, dtype=bool)
    rows = np.arange(x.shape[0])
    for _ in range(min(k, x.shape[1])):
        pick = np.argmax(x, axis=1)
        mask[rows, pick] = True
        x[rows, pick] = NEG_INF
    return mask


def rms_norm(x, weight) -> np.ndarray:
    """y_j = w_j * x_j / sqrt(mean(x^2) + RMS_EPS), over the last axis."""
    x = as_f64(x)
    w = as_f64(weight)
    if x.shape[-1] != w.shape[-1] or w.ndim != 1:
        raise ShapeError(f"weight length {w.shape} != row length {x.shape[-1]}")
    ms = np.mean(x * x, axis=-1, keepdims=True)
    return ensure_finite(w * x / np.sqrt(ms + RMS_EPS), "rms_norm")


def silu(x) -> np.ndarray:
    """x * sigmoid(x), as x / (1 + exp(-x)): below exp's range, where
    exp(-x) overflows to inf, the result is -0."""
    x = as_f64(x)
    with np.errstate(over="ignore", invalid="ignore"):  # -inf in gives NaN, refused here
        return ensure_finite(x / (1.0 + np.exp(-x)), "silu")
