from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import chunk_edge_lengths
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
from dssalab.moba import MobaParams, block_pool_keys, moba_forward, moba_select, moba_selections
from dssalab.sse import SSEParams, sse_forward
from dssalab.tensor_ops import NEG_INF, NumericsError, ShapeError, exp_rows

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
        assert np.array_equal(swa(q, k, v, n), got)  # one loop: a window of n is full attention
        assert np.max(np.abs(got - want)) < 1e-12
        for window in (1, ROW_CHUNK // 2, ROW_CHUNK + 37, n, n + 5):
            got = swa(q, k, v, window)
            assert np.max(np.abs(got - masked_attention(q, k, v, window_keep(n, window)))) < 1e-12


@st.composite
def _length_and_window(draw):
    n = draw(chunk_edge_lengths)
    # windows next to a chunk's or the sequence's length set where a chunk's
    # band starts and whether it clips, so they are drawn half the time
    near = draw(st.sampled_from((ROW_CHUNK, n)))
    return n, draw(st.one_of(st.integers(1, 600), st.integers(max(1, near - 2), near + 2)))


@given(case=_length_and_window(), seed=st.integers(0, 2**32 - 1))
def test_chunk_edges_match_masked_oracle_property(case, seed):
    n, window = case
    rng = np.random.default_rng(seed)
    q, k, v = (rng.standard_normal((n, 8)) for _ in range(3))
    full = full_attention(q, k, v)
    # one loop: a window of n or more is full attention
    assert np.array_equal(swa(q, k, v, max(n, window)), full)
    for got, keep in ((full, causal_keep(n)), (swa(q, k, v, window), window_keep(n, window))):
        want = masked_attention(q, k, v, keep)
        assert np.max(np.abs(got - want)) < 1e-12


def test_attention_memory_stays_below_quarter_n_squared():
    # an n x n float64 array alone is four times the bound
    n, d = 2048, 16
    rng = np.random.default_rng(20)
    q, k, v = (rng.standard_normal((n, d)) for _ in range(3))
    quarter = n * n * 8 / 4
    calls = {
        "full_attention": (lambda: full_attention(q, k, v), quarter),
        "swa": (lambda: swa(q, k, v, 128), quarter),
        "moba_forward": (lambda: moba_forward(q, k, v, MobaParams(block_size=64, top_k=4)), quarter),
        # a window far past n costs what full attention costs: the keep band
        # is at most as wide as the sequence, never as the window
        "swa at n=5, window 2**40": (lambda: swa(q[:5], k[:5], v[:5], 2**40), 2**20),
    }
    for name, (call, bound) in calls.items():
        tracemalloc.start()
        try:
            out = call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound, (name, peak)
    assert np.array_equal(out, full_attention(q[:5], k[:5], v[:5]))


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
    scores = np.where(keep, q[:4] @ k[:4].T, NEG_INF)
    with pytest.raises(NumericsError):
        exp_rows(scores)


def test_zero_query_rows_give_empty_outputs():
    qk, v = np.zeros((0, 4)), np.zeros((0, 3))
    assert full_attention(qk, qk, v).shape == (0, 3)
    assert swa(qk, qk, v, 2).shape == (0, 3)
    params = MobaParams(block_size=2, top_k=2)
    assert moba_forward(qk, qk, v, params).shape == (0, 3)
    selected = moba_select(qk, block_pool_keys(qk, 2), params)
    assert selected.shape == (0, 0) and selected.dtype == bool
    assert moba_selections(qk, qk, params) == []
    sse = SSEParams(num_partitions=4, top_k=2, gate_weight=np.ones((5, 4)))
    assert sse_forward(np.zeros((0, 5)), qk, qk, v, sse).outputs.shape == (0, 3)


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
    # n_heads below 1, a width it does not divide, q/k and v widths that split differently
    for mechanism in (full_attention, lambda q, k, v, n_heads: swa(q, k, v, 2, n_heads=n_heads)):
        for n_heads, qk, v in ((0, 4, 4), (-1, 4, 4), (2, 3, 4), (2, 4, 3), (3, 6, 4)):
            with pytest.raises(ShapeError, match=rf"widths \[{qk}, {qk}, {v}\]"):
                mechanism(np.zeros((3, qk)), np.zeros((3, qk)), np.zeros((3, v)), n_heads=n_heads)
    with pytest.raises(ShapeError):
        masked_attention(np.zeros((3, 2)), np.zeros((3, 2)), np.zeros((3, 2)), np.ones((3, 4), dtype=bool))
