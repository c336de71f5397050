from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from dssalab import attention
from dssalab.attention import (
    ROW_CHUNK,
    causal_keep,
    full_attention,
    linear_attention_parallel,
    linear_attention_recurrent,
    masked_attention,
    swa,
    window_keep,
)
from dssalab.moba import MobaParams, moba_forward
from dssalab.tensor_ops import NumericsError, ShapeError

# lengths around the chunk boundaries of the softmax core
CHUNK_LENGTHS = (1, ROW_CHUNK - 1, ROW_CHUNK, ROW_CHUNK + 1, 2 * ROW_CHUNK + 3)


def full_attention_oracle(q, k, v):
    # causal softmax attention, triple loop, extended-precision exp/sum
    n, d_v = q.shape[0], v.shape[1]
    out = np.zeros((n, d_v))
    for t in range(n):
        logits = np.array([np.dot(q[t], k[s]) for s in range(t + 1)], dtype=np.longdouble)
        logits -= logits.max()
        weights = np.exp(logits)
        weights /= weights.sum()
        acc = np.zeros(d_v, dtype=np.longdouble)
        for s in range(t + 1):
            acc += weights[s] * v[s].astype(np.longdouble)
        out[t] = acc.astype(np.float64)
    return out


def linear_attention_oracle(q, k, v):
    # o_t = sum_{s<=t} (q_t . k_s) v_s, scalar loops
    n, d_v = q.shape[0], v.shape[1]
    out = np.zeros((n, d_v))
    for t in range(n):
        for s in range(t + 1):
            out[t] += np.dot(q[t], k[s]) * v[s]
    return out


def test_full_attention_matches_oracle():
    rng = np.random.default_rng(21)
    for n, d in [(1, 2), (4, 3), (9, 5)]:
        q, k, v = (rng.standard_normal((n, d)) for _ in range(3))
        got = full_attention(q, k, v)
        assert np.max(np.abs(got - full_attention_oracle(q, k, v))) < 1e-12


def test_full_attention_first_row_is_v0():
    rng = np.random.default_rng(5)
    q, k, v = (rng.standard_normal((6, 4)) for _ in range(3))
    # only token 0 is visible to itself, so the softmax is a point mass
    assert np.allclose(full_attention(q, k, v)[0], v[0], atol=1e-15)


def test_full_attention_rows_are_convex_combinations():
    rng = np.random.default_rng(31)
    q, k, v = (rng.standard_normal((10, 4)) for _ in range(3))
    out = full_attention(q, k, v)
    for t in range(10):
        lo = v[: t + 1].min(axis=0) - 1e-12
        hi = v[: t + 1].max(axis=0) + 1e-12
        assert np.all(out[t] >= lo) and np.all(out[t] <= hi)


def test_full_attention_causality_mutation():
    rng = np.random.default_rng(8)
    q, k, v = (rng.standard_normal((8, 3)) for _ in range(3))
    base = full_attention(q, k, v)
    k2, v2 = k.copy(), v.copy()
    k2[6] += 10.0
    v2[7] -= 5.0
    got = full_attention(q, k2, v2)
    assert np.array_equal(base[:6], got[:6])


def test_swa_equals_full_when_window_covers_sequence():
    rng = np.random.default_rng(13)
    for n in (1, 5, 12):
        q, k, v = (rng.standard_normal((n, 3)) for _ in range(3))
        assert np.max(np.abs(swa(q, k, v, n) - full_attention(q, k, v))) < 1e-14
        assert np.max(np.abs(swa(q, k, v, n + 7) - full_attention(q, k, v))) < 1e-14


def test_swa_window_one_returns_values():
    rng = np.random.default_rng(14)
    q, k, v = (rng.standard_normal((7, 3)) for _ in range(3))
    # each token sees only itself
    assert np.allclose(swa(q, k, v, 1), v, atol=1e-15)


def test_swa_matches_windowed_oracle():
    rng = np.random.default_rng(15)
    n, d, w = 9, 4, 3
    q, k, v = (rng.standard_normal((n, d)) for _ in range(3))
    got = swa(q, k, v, w)
    for t in range(n):
        lo = max(0, t - w + 1)
        logits = np.array([np.dot(q[t], k[s]) for s in range(lo, t + 1)], dtype=np.longdouble)
        logits -= logits.max()
        weights = np.exp(logits)
        weights /= weights.sum()
        want = sum(weights[i] * v[lo + i].astype(np.longdouble) for i in range(len(weights)))
        assert np.max(np.abs(got[t] - want.astype(np.float64))) < 1e-13


def test_linear_attention_parallel_matches_scalar_oracle():
    rng = np.random.default_rng(16)
    q, k, v = (rng.standard_normal((8, 3)) * 0.5 for _ in range(3))
    assert np.max(np.abs(linear_attention_parallel(q, k, v) - linear_attention_oracle(q, k, v))) < 1e-12


def test_linear_attention_recurrent_matches_parallel():
    rng = np.random.default_rng(17)
    for n, d in [(1, 2), (6, 4), (16, 3)]:
        q, k, v = (rng.standard_normal((n, d)) * 0.5 for _ in range(3))
        got_p = linear_attention_parallel(q, k, v)
        got_r = linear_attention_recurrent(q, k, v)
        assert np.max(np.abs(got_p - got_r)) < 1e-12


def test_linear_attention_causality_mutation():
    rng = np.random.default_rng(18)
    q, k, v = (rng.standard_normal((8, 3)) for _ in range(3))
    base = linear_attention_recurrent(q, k, v)
    v2 = v.copy()
    v2[5] = 100.0
    got = linear_attention_recurrent(q, k, v2)
    assert np.array_equal(base[:5], got[:5])


def test_chunked_core_matches_masked_oracle():
    rng = np.random.default_rng(19)
    for n in CHUNK_LENGTHS:
        q, k, v = (rng.standard_normal((n, 8)) for _ in range(3))
        got = full_attention(q, k, v)
        want = masked_attention(q, k, v, causal_keep(n))
        if n <= ROW_CHUNK:  # one chunk is the oracle's own computation
            assert np.array_equal(got, want)
        assert np.max(np.abs(got - want)) < 1e-12
        for window in (1, ROW_CHUNK // 2, ROW_CHUNK + 37, n, n + 5):
            got = swa(q, k, v, window)
            assert np.max(np.abs(got - masked_attention(q, k, v, window_keep(n, window)))) < 1e-12


def test_attention_memory_stays_below_quarter_n_squared():
    # an n x n float64 array alone is four times the bound
    n, d = 2048, 16
    rng = np.random.default_rng(20)
    q, k, v = (rng.standard_normal((n, d)) for _ in range(3))
    calls = {
        "full_attention": lambda: full_attention(q, k, v),
        "swa": lambda: swa(q, k, v, 128),
        "moba_forward": lambda: moba_forward(q, k, v, MobaParams(block_size=64, top_k=4)),
    }
    for name, call in calls.items():
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * n * 8 / 4, (name, peak)


def test_attention_numerics_errors():
    rng = np.random.default_rng(22)
    q, k, v = (rng.standard_normal((300, 3)) for _ in range(3))
    v[3, 1] = np.inf  # reaches the outputs of rows 3 on
    with np.errstate(invalid="ignore"), pytest.raises(NumericsError):
        full_attention(q, k, v)
    with np.errstate(invalid="ignore"), pytest.raises(NumericsError):
        swa(q, k, v, 8)
    with np.errstate(invalid="ignore"), pytest.raises(NumericsError):
        masked_attention(q, k, v, causal_keep(300))
    q[2, 0] = np.nan
    with pytest.raises(NumericsError):
        swa(q, k, np.ones((300, 3)), 2)
    # a query that keeps no key
    keep = causal_keep(4)
    keep[2] = False
    with pytest.raises(NumericsError):
        masked_attention(q[:4], k[:4], v[:4], keep)
    with pytest.raises(NumericsError):
        attention._attend(q[:4], k[:4], v[:4], lambda s, e: (slice(0, e), keep[s:e, :e]))


def test_attention_shape_validation():
    with pytest.raises(ShapeError):
        full_attention(np.zeros((3, 2)), np.zeros((4, 2)), np.zeros((3, 2)))
    for mechanism in (full_attention, lambda q, k, v: swa(q, k, v, 2)):
        with pytest.raises(ShapeError):
            mechanism(np.zeros((3, 2)), np.zeros((3, 2)), np.zeros((4, 2)))  # v rows differ
        with pytest.raises(ShapeError):
            mechanism(np.zeros((3, 2)), np.zeros((3, 2)), np.zeros(3))  # 1-D v
    for window in (0, -1):
        with pytest.raises(ValueError):
            swa(np.zeros((3, 2)), np.zeros((3, 2)), np.zeros((3, 2)), window)
    with pytest.raises(ShapeError):
        linear_attention_parallel(np.zeros((3, 2)), np.zeros((3, 3)), np.zeros((3, 2)))
    with pytest.raises(ShapeError):
        masked_attention(np.zeros((3, 2)), np.zeros((3, 2)), np.zeros((3, 2)), np.ones((3, 4), dtype=bool))
