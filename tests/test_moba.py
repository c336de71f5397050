from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import chunk_edge_lengths, moba_select_softmax, moba_softmax_gates
from dssalab import moba
from dssalab.attention import ROW_CHUNK, causal_keep, full_attention, masked_attention
from dssalab.moba import (
    MobaParams,
    activation_ratio,
    block_pool_keys,
    moba_forward,
    moba_select,
    moba_selections,
    num_blocks,
)
from dssalab.tensor_ops import NEG_INF, NumericsError, ShapeError, softmax_rows


def masked_form(q, k, v, params):
    # dense form: the block selection expanded to an n x n keep mask
    n = q.shape[0]
    selected = moba_select(q, block_pool_keys(k, params.block_size), params)
    keep = np.repeat(selected, params.block_size, axis=1)[:, :n] & causal_keep(n)
    return masked_attention(q, k, v, keep)


def pool_loop(k, block_size):
    # one mean per block; the trailing partial block averages what it holds
    n, d = k.shape
    pooled = np.empty((num_blocks(n, block_size), d))
    for b in range(pooled.shape[0]):
        pooled[b] = k[b * block_size : min((b + 1) * block_size, n)].mean(axis=0)
    return pooled


def masked_oracle(q, k, v, params):
    # materialize each query's selected-block mask, then run plain softmax
    n, d_v = q.shape[0], v.shape[1]
    selected = moba_select(q, block_pool_keys(k, params.block_size), params)
    out = np.zeros((n, d_v))
    for t in range(n):
        allow = np.zeros(n, dtype=bool)
        for b in np.flatnonzero(selected[t]):
            allow[b * params.block_size : (b + 1) * params.block_size] = True
        allow[t + 1 :] = False
        logits = np.where(allow, q[t] @ k.T, NEG_INF)
        out[t] = softmax_rows(logits) @ v
    return out


def test_block_pool_matches_loop_oracle():
    rng = np.random.default_rng(13)
    for n in (1, 5, 63, 64, 65, 200, 4096, 4100):
        k = rng.standard_normal((n, 3))
        for b in (1, 3, 64, 4096):
            assert np.array_equal(block_pool_keys(k, b), pool_loop(k, b)), (n, b)


@given(
    n=st.integers(1, 3 * ROW_CHUNK + 1),
    b=st.integers(1, 2 * ROW_CHUNK),
    d=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
)
def test_block_pool_matches_loop_oracle_property(n, b, d, seed):
    k = np.random.default_rng(seed).standard_normal((n, d))
    assert np.array_equal(block_pool_keys(k, b), pool_loop(k, b))


def test_block_pool_single_block_is_global_mean():
    rng = np.random.default_rng(1)
    k = rng.standard_normal((6, 3))
    pooled = block_pool_keys(k, 6)
    assert pooled.shape == (1, 3)
    assert np.allclose(pooled[0], k.mean(axis=0), atol=1e-15)


def test_block_pool_constant_keys():
    k = np.full((8, 2), 3.5)
    assert np.allclose(block_pool_keys(k, 3), 3.5, atol=0.0)


def test_block_pool_partial_last_block():
    rng = np.random.default_rng(2)
    k = rng.standard_normal((10, 4))
    pooled = block_pool_keys(k, 4)
    assert pooled.shape == (3, 4)
    assert np.allclose(pooled[0], k[0:4].mean(axis=0), atol=1e-15)
    assert np.allclose(pooled[1], k[4:8].mean(axis=0), atol=1e-15)
    assert np.allclose(pooled[2], k[8:10].mean(axis=0), atol=1e-15)  # true-length mean


def blocks_of(selected, t):
    return tuple(np.flatnonzero(selected[t]).tolist())


def sort_oracle(scores, current, k_sel):
    # own block first, then the others by descending score, index breaking ties
    ranked = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    want = {current}
    for idx in ranked:
        if len(want) >= k_sel:
            break
        want.add(idx)
    return tuple(sorted(want))


def test_select_all_when_k_covers_visible_blocks():
    rng = np.random.default_rng(3)
    k = rng.standard_normal((12, 3))
    pooled = block_pool_keys(k, 4)
    p = MobaParams(block_size=4, top_k=5)
    selected = moba_select(rng.standard_normal((12, 3)), pooled, p)
    assert selected.shape == (12, 3) and selected.dtype == bool
    for t in range(12):
        assert blocks_of(selected, t) == tuple(range(t // 4 + 1))


def test_first_block_query_selects_only_block_zero():
    rng = np.random.default_rng(4)
    k = rng.standard_normal((12, 3))
    pooled = block_pool_keys(k, 4)
    p = MobaParams(block_size=4, top_k=2)
    selected = moba_select(rng.standard_normal((12, 3)), pooled, p)
    for t in range(4):
        assert blocks_of(selected, t) == (0,)


def test_select_matches_full_sort_oracle():
    # top_k = 3 exceeds the visible block count at positions 0..7
    rng = np.random.default_rng(5)
    n, b, k_sel = 24, 4, 3
    keys = rng.standard_normal((n, 3))
    pooled = block_pool_keys(keys, b)
    p = MobaParams(block_size=b, top_k=k_sel)
    for _ in range(5):
        q = rng.standard_normal((n, 3))
        selected = moba_select(q, pooled, p)
        for t in range(n):
            visible = t // b + 1
            scores = softmax_rows(q[t] @ pooled[:visible].T)
            assert blocks_of(selected, t) == sort_oracle(scores, t // b, k_sel)


def test_select_ranking_ignores_softmax_vs_raw_scores():
    # softmax is monotone, so top-k by gate equals top-k by raw dot product
    rng = np.random.default_rng(6)
    keys = rng.standard_normal((32, 4))
    pooled = block_pool_keys(keys, 4)
    p = MobaParams(block_size=4, top_k=3)
    for _ in range(5):
        q = rng.standard_normal((32, 4))
        selected = moba_select(q, pooled, p)
        for t in range(32):
            raw = q[t] @ pooled[: t // 4 + 1].T
            assert blocks_of(selected, t) == sort_oracle(raw, t // 4, 3)


@st.composite
def _select_case(draw):
    # b of one token, below a chunk, one chunk, or longer than the sequence;
    # the routed rows start at 0, inside a block, or after the last row
    n = draw(chunk_edge_lengths | st.integers(0, 300))
    below, past = draw(st.integers(2, ROW_CHUNK - 1)), n + draw(st.integers(1, 9))
    b = draw(st.sampled_from([1, below, ROW_CHUNK, past]))
    inside = draw(st.integers(0, max(0, n - 1)))
    start = draw(st.sampled_from([0, n, inside if inside % b else min(n, inside + 1)]))
    return n, start, MobaParams(block_size=b, top_k=draw(st.integers(1, 9)))


@given(case=_select_case(), d=st.integers(1, 8), seed=st.integers(0, 2**32 - 1))
def test_select_matches_softmax_oracle_property(case, d, seed):
    n, start, p = case
    rng = np.random.default_rng(seed)
    q, k = rng.standard_normal((n, d)), rng.standard_normal((n, d))
    pooled = block_pool_keys(k, p.block_size)
    got = moba_select(q[start:], pooled, p, start)
    assert got.shape == (n - start, num_blocks(n, p.block_size)) and got.dtype == bool
    if start == n:  # no row to rank, and softmax_rows needs one
        return
    # rows whose visible oracle gates hold two equal values may rank them
    # apart from raw scores, which rounding had not made equal
    gates, _, visible = moba_softmax_gates(q[start:], pooled, p.block_size, start)
    masked = np.where(visible, gates, -1.0 - np.arange(pooled.shape[0]))  # distinct, below every gate
    tied = (np.diff(np.sort(masked, axis=1), axis=1) == 0).any(axis=1)
    want = moba_select_softmax(q[start:], pooled, p, start)
    assert np.array_equal(got[~tied], want[~tied])


def test_select_runs_no_step_for_zero_rows(monkeypatch):
    # moba_forward routes no row when top_k * b covers n; a start inside a
    # block must not run an empty step either
    monkeypatch.setattr(moba, "top_k_mask", lambda *args: pytest.fail("a step ran"))
    pooled = block_pool_keys(np.ones((10, 2)), 4)
    for start in (0, 5, 8, 10):
        assert moba_select(np.ones((0, 2)), pooled, MobaParams(block_size=4, top_k=2), start).shape == (0, 3)


def test_select_refuses_scores_that_overflow():
    # finite q and keys whose q.pooled overflows to -inf at block 1: ranked,
    # the three rounds would take block 2, block 0, then block 0 again, so
    # top_k_mask takes no -inf and the step refuses it
    q = np.full((1, 1), 1e200)
    pooled = np.array([[1.0], [-1e200], [1.0]])
    with np.errstate(over="ignore"):
        assert np.isneginf(q @ pooled.T).any()
        with pytest.raises(NumericsError, match="moba_select"):
            moba_select(q, pooled, MobaParams(block_size=1, top_k=3), start=2)


def test_select_tie_break_lowest_block_index():
    # identical pooled rows give identical scores everywhere
    pooled = np.ones((4, 2))
    p = MobaParams(block_size=2, top_k=2)
    selected = moba_select(np.ones((8, 2)), pooled, p)
    assert blocks_of(selected, 7) == (0, 3)  # current block 3 forced, tie among 0..2 -> 0
    assert [blocks_of(selected, t) for t in range(6)] == [(0,), (0,), (0, 1), (0, 1), (0, 2), (0, 2)]


def test_forward_equals_full_attention_when_selecting_all():
    rng = np.random.default_rng(7)
    for n, b in [(8, 2), (12, 4), (5, 2)]:
        q, k, v = (rng.standard_normal((n, 3)) for _ in range(3))
        p = MobaParams(block_size=b, top_k=(n + b - 1) // b)
        got = moba_forward(q, k, v, p)
        assert np.max(np.abs(got - full_attention(q, k, v))) < 1e-10


def test_forward_degenerate_single_token_blocks():
    rng = np.random.default_rng(8)
    q, k, v = (rng.standard_normal((6, 3)) for _ in range(3))
    p = MobaParams(block_size=1, top_k=1)
    # only the self block survives, and softmax over one entry is 1
    assert np.allclose(moba_forward(q, k, v, p), v, atol=1e-15)


def test_forward_matches_mask_materializing_oracle():
    rng = np.random.default_rng(9)
    n, b, k_sel = 16, 4, 2
    q, k, v = (rng.standard_normal((n, 4)) for _ in range(3))
    p = MobaParams(block_size=b, top_k=k_sel)
    got = moba_forward(q, k, v, p)
    assert np.max(np.abs(got - masked_oracle(q, k, v, p))) < 1e-13


def test_forward_gather_matches_masked_form():
    rng = np.random.default_rng(14)
    for n in (1, ROW_CHUNK - 1, ROW_CHUNK, ROW_CHUNK + 1, 2 * ROW_CHUNK + 3):
        q, k, v = (rng.standard_normal((n, 8)) for _ in range(3))
        cases = [
            MobaParams(block_size=7, top_k=3),  # partial last block at every n > 1 here
            MobaParams(block_size=16, top_k=2),  # top_k below the block count
            MobaParams(block_size=16, top_k=num_blocks(n, 16)),  # every block
            MobaParams(block_size=n + 9, top_k=1),  # one block longer than the sequence
        ]
        for p in cases:
            got = moba_forward(q, k, v, p)
            assert np.max(np.abs(got - masked_form(q, k, v, p))) < 1e-12, (n, p)
    # the attn_long benchmark shape: the first chunks read their prefix, the rest go block-major
    n = 2048
    q, k, v = (rng.standard_normal((n, 16)) for _ in range(3))
    p = MobaParams(block_size=64, top_k=4)
    assert np.max(np.abs(moba_forward(q / 4.0, k, v, p) - masked_form(q / 4.0, k, v, p))) < 1e-12


@st.composite
def _length_and_params(draw):
    # a chunk reads its causal prefix iff top_k * b covers its last row, so
    # top_k * b is drawn next to a multiple of ROW_CHUNK: the first chunks
    # read their prefix and the rest take the block-major path. b is mostly
    # not a divisor of ROW_CHUNK, n sits next to a chunk edge or a block
    # edge, and top_k may exceed the block count
    b = draw(st.integers(1, 2 * ROW_CHUNK))
    blocks = st.integers(1, max(1, 3 * ROW_CHUNK // b))
    n = draw(chunk_edge_lengths | st.builds(lambda j, d: max(1, j * b + d), blocks, st.integers(-1, 1)))
    prefix_chunks = draw(st.integers(0, 3))
    top_k = max(1, -(-prefix_chunks * ROW_CHUNK // b) + draw(st.integers(-1, 1)))
    if draw(st.booleans()):
        top_k = num_blocks(n, b) + draw(st.integers(0, 2))
    return n, MobaParams(block_size=b, top_k=top_k)


@given(case=_length_and_params(), seed=st.integers(0, 2**32 - 1))
def test_forward_matches_masked_form_property(case, seed):
    n, p = case
    rng = np.random.default_rng(seed)
    q, k, v = (rng.standard_normal((n, 8)) for _ in range(3))
    got = moba_forward(q, k, v, p)
    assert np.max(np.abs(got - masked_form(q, k, v, p))) < 1e-12
    # the whole chunks that top_k * b covers are full attention's own chunks,
    # so a split off by one chunk either way changes bits the bound cannot see
    covered = min(p.top_k, num_blocks(n, p.block_size)) * p.block_size
    m = n if covered >= n else covered // ROW_CHUNK * ROW_CHUNK
    assert np.array_equal(got[:m], full_attention(q, k, v)[:m])


def test_forward_at_scores_past_exp_overflow_matches_masked_form():
    # scores reach the thousands, where exp overflows unless each row's
    # partials and their log-sum-exp merge are shifted by their maxima
    rng = np.random.default_rng(16)
    for n, b, top_k in ((200, 8, 3), (150, 5, 4), (300, 16, 2)):
        q, k, v = (rng.standard_normal((n, 8)) for _ in range(3))
        p = MobaParams(block_size=b, top_k=top_k)
        assert np.max(np.abs(moba_forward(100.0 * q, k, v, p) - masked_form(100.0 * q, k, v, p))) < 1e-12


def test_forward_selecting_all_is_full_attention_bit_for_bit():
    rng = np.random.default_rng(15)
    for n, b in ((5, 2), (ROW_CHUNK + 1, 4), (2 * ROW_CHUNK + 3, 64)):
        q, k, v = (rng.standard_normal((n, 4)) for _ in range(3))
        p = MobaParams(block_size=b, top_k=num_blocks(n, b))
        assert np.array_equal(moba_forward(q, k, v, p), full_attention(q, k, v))


def test_forward_causality_mutation():
    rng = np.random.default_rng(10)
    n, b = 16, 4
    q, k, v = (rng.standard_normal((n, 3)) for _ in range(3))
    p = MobaParams(block_size=b, top_k=2)
    base = moba_forward(q, k, v, p)
    for s in (9, 13, 15):
        k2, v2 = k.copy(), v.copy()
        k2[s] += 7.0
        v2[s] *= -3.0
        got = moba_forward(q, k2, v2, p)
        assert np.array_equal(base[:s], got[:s])


def test_forward_rows_are_convex_combinations():
    rng = np.random.default_rng(11)
    n = 12
    q, k, v = (rng.standard_normal((n, 3)) for _ in range(3))
    out = moba_forward(q, k, v, MobaParams(block_size=4, top_k=2))
    for t in range(n):
        lo = v[: t + 1].min(axis=0) - 1e-12
        hi = v[: t + 1].max(axis=0) + 1e-12
        assert np.all(out[t] >= lo) and np.all(out[t] <= hi)


def test_selections_are_deterministic():
    rng = np.random.default_rng(12)
    q, k = rng.standard_normal((10, 3)), rng.standard_normal((10, 3))
    p = MobaParams(block_size=3, top_k=2)
    pooled = block_pool_keys(k, p.block_size)
    first = moba_select(q, pooled, p)
    assert np.array_equal(first, moba_select(q, pooled, p))
    selections = moba_selections(q, k, p)
    assert [s.query_index for s in selections] == list(range(10))
    assert [s.blocks for s in selections] == [tuple(np.flatnonzero(row)) for row in first]
    assert selections[0].blocks == (0,)


def test_activation_ratio_values():
    assert activation_ratio(8192, 512, 4) == 0.25
    assert activation_ratio(65536, 1024, 8) == 0.125
    assert activation_ratio(262144, 4096, 12) == 0.1875
    assert activation_ratio(524288, 4096, 12) == 0.09375
    assert activation_ratio(100, 64, 4) == 1.0  # capped
    assert activation_ratio(1, 10**400, 1) == 1.0  # capped before a quotient no float holds


def test_params_validation():
    p = MobaParams(block_size=2, top_k=1)
    with pytest.raises(ShapeError):
        moba_forward(np.zeros((4, 2)), np.zeros((4, 2)), np.zeros((3, 2)), p)  # v rows differ
    with pytest.raises(ShapeError):
        moba_forward(np.zeros((4, 2)), np.zeros((5, 2)), np.zeros((4, 2)), p)
    for n_heads, qk, v in ((0, 4, 4), (2, 3, 4), (2, 4, 3)):  # n_heads < 1, or widths it does not split
        with pytest.raises(ShapeError, match=rf"widths \[{qk}, {qk}, {v}\]"):
            moba_forward(np.zeros((4, qk)), np.zeros((4, qk)), np.zeros((4, v)), p, n_heads=n_heads)
    for n in (2, 300):  # a chunk that reads its prefix; rows that go block-major
        v = np.ones((n, 2))
        v[n - 2, 0] = np.inf  # in the query's own block, so always attended
        with np.errstate(invalid="ignore"), pytest.raises(NumericsError):
            moba_forward(np.ones((n, 2)), np.ones((n, 2)), v, p)
    with pytest.raises(ValueError):
        MobaParams(block_size=0, top_k=1)
    with pytest.raises(ValueError):
        MobaParams(block_size=4, top_k=0)
    with pytest.raises(ValueError):
        activation_ratio(0, 4, 1)
