"""Heads side by side: a call with n_heads = h on q/k/v of shape (n, h * d)
returns bit for bit the h single-head calls on each head's columns,
concatenated in the same order."""

from __future__ import annotations

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from conftest import chunk_edge_lengths
from dssalab.attention import full_attention, swa
from dssalab.moba import MobaParams, moba_forward
from dssalab.sse import SSEParams, sse_forward

heads = st.integers(1, 3)
widths = st.integers(1, 4)
seeds = st.integers(0, 2**32 - 1)


def head_inputs(seed: int, n: int, h: int, d: int, d_v: int) -> list[np.ndarray]:
    rng = np.random.default_rng(seed)
    return [rng.standard_normal((n, h * d)), rng.standard_normal((n, h * d)), rng.standard_normal((n, h * d_v))]


def single_heads(call, h: int, q, k, v) -> list:
    """call on each head's columns of q, k and v, head 0 first."""
    return [call(*cols) for cols in zip(*(np.split(t, h, axis=1) for t in (q, k, v)))]


@given(n=chunk_edge_lengths, h=heads, d=widths, d_v=widths, window=st.integers(1, 200), seed=seeds)
def test_packed_attention_equals_single_head_calls(n, h, d, d_v, window, seed):
    q, k, v = head_inputs(seed, n, h, d, d_v)
    got = full_attention(q, k, v, n_heads=h)
    assert np.array_equal(got, np.concatenate(single_heads(full_attention, h, q, k, v), axis=1))
    got = swa(q, k, v, window, n_heads=h)
    assert np.array_equal(got, np.concatenate(single_heads(lambda *t: swa(*t, window), h, q, k, v), axis=1))


@st.composite
def _moba_case(draw):
    # block sizes from 1 to past n, so the routed rows from m on start at a
    # block edge, inside a block, or do not exist
    n = draw(chunk_edge_lengths | st.integers(1, 130))
    return n, MobaParams(block_size=draw(st.integers(1, n + 8)), top_k=draw(st.integers(1, 5)))


@given(case=_moba_case(), h=heads, d=widths, d_v=widths, seed=seeds)
def test_packed_moba_equals_single_head_calls(case, h, d, d_v, seed):
    n, p = case
    q, k, v = head_inputs(seed, n, h, d, d_v)
    want = np.concatenate(single_heads(lambda *t: moba_forward(*t, p), h, q, k, v), axis=1)
    assert np.array_equal(moba_forward(q, k, v, p, n_heads=h), want)


@given(n=chunk_edge_lengths, h=heads, d=widths, d_v=widths, seed=seeds,
       feature_map=st.sampled_from(("identity", "silu")))
def test_packed_sse_equals_single_head_calls(n, h, d, d_v, seed, feature_map):
    q, k, v = head_inputs(seed, n, h, d, d_v)
    rng = np.random.default_rng(seed + 1)
    x = rng.standard_normal((n, 5))
    p = SSEParams(num_partitions=4, top_k=2, gate_weight=rng.standard_normal((5, 4)), feature_map=feature_map)
    got = sse_forward(x, q, k, v, p, n_heads=h)
    singles = single_heads(lambda *t: sse_forward(x, *t, p), h, q, k, v)
    assert np.array_equal(got.outputs, np.concatenate([r.outputs for r in singles], axis=1))
    for name in ("gates", "freqs", "selected"):  # one gate, routed once for every head
        assert np.array_equal(getattr(got, name), getattr(singles[0], name)), name
