from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dssalab.attention import linear_attention_recurrent
from dssalab.sse import CHUNK, SSEParams, sse_forward, sse_gate
from dssalab.tensor_ops import NumericsError, ShapeError, l2_normalize_rows, silu, softmax_rows

# lengths around the chunk boundaries of the scan
CHUNK_LENGTHS = (0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 3)

# the option sets the scan is checked under against manual_scan
OPTION_SETS = (
    {}, {"always_selected": 1}, {"feature_map": "silu"}, {"qk_l2_norm": True},
    {"always_selected": 3, "feature_map": "silu", "qk_l2_norm": True},
)


def make_params(rng, d, num_partitions=4, top_k=2, **kw):
    return SSEParams(
        num_partitions=num_partitions,
        top_k=top_k,
        gate_weight=rng.standard_normal((d, num_partitions)),
        **kw,
    )


def topk_oracle(gates, k):
    # full sort, then walk values descending with index as tiebreaker
    pairs = sorted(enumerate(gates), key=lambda p: (-p[1], p[0]))
    return sorted(idx for idx, _ in pairs[:k])


def test_gate_is_softmax_and_topk_matches_sort_oracle():
    rng = np.random.default_rng(2)
    p = make_params(rng, 5, num_partitions=6, top_k=3)
    x = rng.standard_normal((50, 5))
    gates, selected = sse_gate(x, p)
    assert gates.shape == selected.shape == (50, 6) and selected.dtype == bool
    assert np.max(np.abs(gates.sum(axis=1) - 1.0)) < 1e-12
    assert np.max(np.abs(gates - softmax_rows(x @ p.gate_weight))) == 0.0
    for t in range(50):
        assert list(np.flatnonzero(selected[t])) == topk_oracle(gates[t], 3)


def test_gate_tie_break_takes_lowest_index():
    # zero weights make every partition score identical
    p = SSEParams(num_partitions=4, top_k=2, gate_weight=np.zeros((3, 4)))
    _, selected = sse_gate(np.ones((2, 3)), p)
    assert np.array_equal(selected, [[True, True, False, False]] * 2)


def test_always_selected_is_appended_without_evicting():
    rng = np.random.default_rng(7)
    base = make_params(rng, 5, num_partitions=6, top_k=2)
    x = rng.standard_normal((40, 5))
    _, plain = sse_gate(x, base)
    for pinned_idx in range(6):
        pinned = SSEParams(
            num_partitions=6, top_k=2, gate_weight=base.gate_weight, always_selected=pinned_idx
        )
        _, got = sse_gate(x, pinned)
        want = plain.copy()
        want[:, pinned_idx] = True  # added on top, no winner evicted
        assert np.array_equal(got, want)
        assert np.all(got.sum(axis=1) <= 3)  # at most top_k + 1


def test_forward_never_selected_partition_leaves_output_unchanged():
    # a fifth partition whose gate underflows to exactly 0 is never selected;
    # the other gates, the selection and the outputs stay those of four
    rng = np.random.default_rng(9)
    n, d = 12, 4
    x = np.abs(rng.standard_normal((n, d))) + 0.1
    q, k, v = (rng.standard_normal((n, d)) for _ in range(3))
    four = make_params(rng, d, num_partitions=4, top_k=2)
    five = SSEParams(
        num_partitions=5, top_k=2,
        gate_weight=np.hstack([four.gate_weight, np.full((d, 1), -1e4)]),
    )
    got, want = sse_forward(x, q, k, v, five), sse_forward(x, q, k, v, four)
    assert not got.selected[:, 4].any() and np.all(got.freqs[:, 4] == 0.0)
    assert np.array_equal(got.gates[:, :4], want.gates)
    assert np.array_equal(got.selected[:, :4], want.selected)
    assert np.max(np.abs(got.outputs - want.outputs)) < 1e-14


def test_forward_token_reads_its_own_update():
    # the freshly updated state must be visible to the same step's read
    one = SSEParams(num_partitions=1, top_k=1, gate_weight=np.zeros((1, 1)))
    got = sse_forward(np.ones((1, 1)), [[2.0]], [[3.0]], [[5.0]], one)
    assert got.outputs[0, 0] == 2.0 * 3.0 * 5.0
    # with gates, token t reads its own update through a_t,i twice
    two = SSEParams(num_partitions=2, top_k=1, gate_weight=np.array([[1.0, 0.0]]))
    got = sse_forward(np.ones((1, 1)), [[2.0]], [[3.0]], [[5.0]], two)
    g = got.gates[0, 0]
    assert np.array_equal(got.selected, [[True, False]])
    assert abs(got.outputs[0, 0] - g * g * 30.0) < 1e-13


def test_single_partition_equals_linear_recurrent():
    # the chunked scan sums in another order than the per-token recurrence
    rng = np.random.default_rng(12)
    for n, d in [(1, 2), (7, 4), (20, 3), (CHUNK + 1, 4), (2 * CHUNK + 3, 3)]:
        q, k, v = (rng.standard_normal((n, d)) * 0.5 for _ in range(3))
        p = SSEParams(num_partitions=1, top_k=1, gate_weight=np.zeros((d, 1)))
        got = sse_forward(q, q, k, v, p)
        want = linear_attention_recurrent(q, k, v)
        assert np.max(np.abs(got.outputs - want)) <= 1e-12 * max(1.0, np.max(np.abs(want))), n


def manual_scan(x, q, k, v, p):
    # per-token scan over separate partition states: outputs, selections, freqs
    if p.feature_map == "silu":
        q, k = silu(q), silu(k)
    if p.qk_l2_norm:
        q, k = l2_normalize_rows(q), l2_normalize_rows(k)
    n, num = q.shape[0], p.num_partitions
    states = np.zeros((num, q.shape[1], v.shape[1]))
    freq = np.zeros(num)
    outputs, selections, freqs = np.zeros((n, v.shape[1])), [], np.zeros((n, num))
    for t in range(n):
        gates = softmax_rows(x[t] @ p.gate_weight)
        selected = sorted(set(topk_oracle(gates, p.top_k)) | ({p.always_selected} - {None}))
        for i in selected:
            states[i] += gates[i] * np.outer(k[t], v[t])
            freq[i] += 1
            outputs[t] += gates[i] * (q[t] @ states[i])
        selections.append(selected)
        freqs[t] = freq / (t + 1)
    return outputs, selections, freqs


def test_forward_matches_manual_scan_oracle():
    # 41 rows fit one chunk; the chunk lengths carry state across chunk edges
    rng = np.random.default_rng(13)
    d, num, k_sel = 3, 4, 2
    for n in (41, *CHUNK_LENGTHS):
        x = rng.standard_normal((n, d))
        q, kk, v = (rng.standard_normal((n, d)) for _ in range(3))
        for options in OPTION_SETS:
            p = make_params(np.random.default_rng(99), d, num_partitions=num, top_k=k_sel, **options)
            got = sse_forward(x, q, kk, v, p)
            outputs, selections, freqs = manual_scan(x, q, kk, v, p)
            assert [list(np.flatnonzero(row)) for row in got.selected] == selections, (n, options)
            assert np.abs(got.outputs - outputs).max(initial=0.0) < 1e-12, (n, options)
            assert np.abs(got.freqs - freqs).max(initial=0.0) < 1e-15, (n, options)


# lengths k * CHUNK - 1, k * CHUNK and k * CHUNK + 1 for k = 1..3: the last
# chunk of the scan is one row short of full, full, or a single row
@given(
    n=st.builds(lambda k, d: k * CHUNK + d, st.integers(1, 3), st.integers(-1, 1)),
    options=st.sampled_from(OPTION_SETS),
    seed=st.integers(0, 2**32 - 1),
)
def test_chunk_edges_match_manual_scan_property(n, options, seed):
    rng = np.random.default_rng(seed)
    x, q, k, v = (rng.standard_normal((n, 3)) for _ in range(4))
    p = make_params(rng, 3, num_partitions=4, top_k=2, **options)
    got = sse_forward(x, q, k, v, p)
    outputs, selections, freqs = manual_scan(x, q, k, v, p)
    assert [list(np.flatnonzero(row)) for row in got.selected] == selections
    assert np.abs(got.outputs - outputs).max() < 1e-12
    assert np.abs(got.freqs - freqs).max() < 1e-15


def test_running_freq_uses_after_update_convention():
    p = SSEParams(num_partitions=2, top_k=1, gate_weight=np.array([[1.0, 0.0]]))
    x = np.ones((3, 1))  # gate always prefers partition 0
    q = k = v = np.ones((3, 1))
    got = sse_forward(x, q, k, v, p)
    # after step t, partition 0 was selected t+1 times out of t+1
    assert np.array_equal(got.freqs[:, 0], [1.0, 1.0, 1.0])
    assert np.array_equal(got.freqs[:, 1], [0.0, 0.0, 0.0])


def test_feature_map_silu_then_l2_order():
    rng = np.random.default_rng(14)
    n, d = 6, 4
    x, q, k, v = (rng.standard_normal((n, d)) for _ in range(4))
    p = make_params(np.random.default_rng(50), d, feature_map="silu", qk_l2_norm=True)
    got = sse_forward(x, q, k, v, p)
    q2 = l2_normalize_rows(silu(q))
    k2 = l2_normalize_rows(silu(k))
    p_id = SSEParams(num_partitions=4, top_k=2, gate_weight=p.gate_weight)
    want = sse_forward(x, q2, k2, v, p_id)
    assert np.array_equal(got.outputs, want.outputs)


def test_forward_causality_mutation():
    # row t inside the first chunk, then row CHUNK, the first row of the second
    rng = np.random.default_rng(15)
    d = 3
    p = make_params(np.random.default_rng(77), d)
    for n, t in [(10, 7), (2 * CHUNK + 3, CHUNK)]:
        x, q, k, v = (rng.standard_normal((n, d)) for _ in range(4))
        base = sse_forward(x, q, k, v, p).outputs
        x2, k2 = x.copy(), k.copy()
        x2[t] += 3.0
        k2[t + 1] -= 2.0
        got = sse_forward(x2, q, k2, v, p).outputs
        assert np.array_equal(base[:t], got[:t]), n
        assert not np.array_equal(base[t:], got[t:]), n


def test_forward_shape_errors():
    p = SSEParams(num_partitions=2, top_k=1, gate_weight=np.zeros((2, 2)))
    good = np.zeros((3, 2))
    bad = {
        "1-D v": (good, good, good, np.zeros(3)),
        "3-D q": (good, np.zeros((3, 2, 1)), np.zeros((3, 2, 1)), good),
        "k shape": (good, good, np.zeros((3, 3)), good),
        "x length": (np.zeros((4, 2)), good, good, good),
        "v length": (good, good, good, np.zeros((4, 2))),
    }
    for name, (x, q, k, v) in bad.items():
        try:
            sse_forward(x, q, k, v, p)
        except ShapeError:
            continue
        pytest.fail(f"{name}: no ShapeError")
    v = np.ones((3, 2))
    v[1, 0] = np.inf
    with np.errstate(invalid="ignore"), pytest.raises(NumericsError, match="sse_forward"):
        sse_forward(good, np.ones((3, 2)), np.ones((3, 2)), v, p)


def test_forward_memory_stays_below_quarter_n_squared():
    # the dense masked-product form alone would build an n x n float64 array,
    # four times the bound
    n, d = 4096, 16
    rng = np.random.default_rng(16)
    x, q, k, v = (rng.standard_normal((n, d)) for _ in range(4))
    p = make_params(rng, d, num_partitions=4, top_k=2, feature_map="silu")
    tracemalloc.start()
    try:
        sse_forward(x, q, k, v, p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n * n * 8 / 4, peak


def test_params_validation():
    with pytest.raises(ValueError):
        SSEParams(num_partitions=2, top_k=3, gate_weight=np.zeros((3, 2)))
    with pytest.raises(ValueError):
        SSEParams(num_partitions=2, top_k=1, gate_weight=np.zeros((3, 2)), always_selected=5)
    with pytest.raises(ValueError):
        SSEParams(num_partitions=2, top_k=1, gate_weight=np.zeros((3, 2)), feature_map="relu")
