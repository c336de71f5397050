from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import top_k_mask_sort
from dssalab.attention import causal_keep, window_keep
from dssalab.tensor_ops import (
    NEG_INF,
    NumericsError,
    exp_rows,
    rms_norm,
    sigmoid,
    silu,
    softmax_rows,
    top_k_mask,
)


def softmax_oracle(x: np.ndarray) -> np.ndarray:
    # extended-precision exp/sum, one row at a time
    out = np.empty_like(x, dtype=np.float64)
    for i in range(x.shape[0]):
        row = x[i].astype(np.longdouble)
        row = row - row.max()
        e = np.exp(row)
        out[i] = (e / e.sum()).astype(np.float64)
    return out


def test_softmax_matches_extended_precision_oracle():
    rng = np.random.default_rng(3)
    for _ in range(20):
        x = rng.standard_normal((6, 9)) * rng.uniform(0.1, 30.0)
        got = softmax_rows(x)
        assert np.max(np.abs(got - softmax_oracle(x))) < 1e-14
        assert np.allclose(got.sum(axis=1), 1.0, atol=1e-12)


def test_softmax_shift_invariance():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((4, 7))
    assert np.allclose(softmax_rows(x), softmax_rows(x + 123.0), atol=1e-13)


def test_softmax_with_additive_mask_zeroes_masked_entries():
    x = np.array([[1.0, 2.0, 3.0]])
    mask = np.array([[0.0, NEG_INF, 0.0]])
    got = softmax_rows(x + mask)
    assert got[0, 1] == 0.0
    keep = softmax_oracle(np.array([[1.0, 3.0]]))
    assert np.max(np.abs(got[0, [0, 2]] - keep[0])) < 1e-14


def test_softmax_one_dimensional_input():
    got = softmax_rows(np.array([0.0, 0.0]))
    assert got.shape == (2,)
    assert np.allclose(got, 0.5)
    row = np.array([1.0, NEG_INF, 3.0])
    assert np.array_equal(softmax_rows(row), softmax_rows(row[None, :])[0])


def test_softmax_all_masked_row_raises():
    with pytest.raises(NumericsError):
        softmax_rows(np.zeros((1, 3)) + np.full((1, 3), NEG_INF))


@given(rows=st.integers(1, 9), cols=st.integers(1, 9), d_v=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
def test_exp_rows_on_a_transposed_view_and_normalised_after_pv(rows, cols, d_v, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((rows, cols)) * rng.uniform(0.1, 30.0)
    x[rng.random((rows, cols)) < 0.3] = NEG_INF  # -inf beside finite entries
    x[np.arange(rows), rng.integers(0, cols, rows)] = rng.standard_normal(rows)
    v = rng.standard_normal((cols, d_v))
    e = x.copy()
    row_max = exp_rows(e)
    # the keys-down layout MoBA's routed rows hand it: rows are columns
    t = x.T.copy()
    assert np.array_equal(exp_rows(t.T), row_max) and np.array_equal(t.T, e)
    assert np.array_equal(row_max, x.max(axis=1, keepdims=True))
    pv = e @ np.concatenate([v, np.ones((cols, 1))], axis=1)
    assert np.max(np.abs(pv[:, :-1] / pv[:, -1:] - softmax_rows(x) @ v)) < 1e-13


def test_causal_mask_explicit():
    m = causal_keep(3)
    want = np.array([
        [True, False, False],
        [True, True, False],
        [True, True, True],
    ])
    assert m.dtype == bool and np.array_equal(m, want)


def test_window_mask_explicit():
    m = window_keep(4, 2)
    # row t keeps columns max(0, t-1)..t
    assert m.dtype == bool
    for t in range(4):
        for s in range(4):
            assert m[t, s] == (t - 1 <= s <= t)
    with pytest.raises(ValueError):
        window_keep(4, 0)


def test_rms_norm_matches_scalar_oracle():
    rng = np.random.default_rng(9)
    x = rng.standard_normal((5, 6))
    w = rng.uniform(0.5, 2.0, 6)
    got = rms_norm(x, w)
    for i in range(5):
        ms = np.mean(x[i] ** 2)
        want = x[i] / np.sqrt(ms + 1e-6) * w
        assert np.max(np.abs(got[i] - want)) < 1e-13


def test_rms_norm_zero_row_is_finite():
    got = rms_norm(np.zeros((1, 4)), np.ones(4))
    assert np.array_equal(got, np.zeros((1, 4)))


def sigmoid_masked(x: np.ndarray) -> np.ndarray:
    # the masked two-branch form sigmoid replaced; each branch exponentiates
    # only values <= 0, so neither overflows
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def test_sigmoid_silu_values():
    assert sigmoid(np.array(0.0)) == 0.5
    assert abs(silu(np.array(0.0))) == 0.0
    x = np.array([-700.0, 700.0])
    s = sigmoid(x)
    assert np.all(np.isfinite(s)) and s[0] < 1e-300 and s[1] == 1.0
    edges = [0.0, -0.0, 40.0, -40.0, 745.0, -745.0, 1000.0, -1000.0, 5e-324, -5e-324]
    x = np.concatenate([np.random.default_rng(5).normal(0.0, 50.0, (256, 32)).ravel(), edges])
    assert np.array_equal(sigmoid(x), sigmoid_masked(x))
    # silu(x) = x * sigmoid(x)
    r = np.linspace(-5, 5, 21)
    assert np.allclose(silu(r), r * sigmoid(r), atol=1e-15)


# few distinct values, so rows hold ties; +inf as moba_select's own block.
# top_k_mask's contract rules out NaN and -inf, so none is drawn
_gate_values = st.sampled_from([-1.0, 0.0, 0.5, 1.0, np.inf]) | st.floats(-1e3, 1e3)


@given(
    x=arrays(np.float64, st.tuples(st.integers(0, 6), st.integers(0, 9)), elements=_gate_values),
    k=st.integers(0, 12),
)
def test_top_k_mask_matches_sort_oracle_property(x, k):
    got = top_k_mask(x, k)
    assert got.dtype == bool
    assert np.array_equal(got, top_k_mask_sort(x, k))

