from __future__ import annotations

import numpy as np
import pytest

from dssalab.attention import linear_attention_recurrent
from dssalab.sse import SSEParams, SSEState, sse_forward, sse_gate, sse_step
from dssalab.tensor_ops import l2_normalize_rows, silu, softmax_rows


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
    for _ in range(50):
        x = rng.standard_normal(5)
        gates, selected = sse_gate(x, p)
        assert abs(gates.sum() - 1.0) < 1e-12
        assert np.max(np.abs(gates - softmax_rows(x @ p.gate_weight))) == 0.0
        assert list(selected) == topk_oracle(gates, 3)


def test_gate_tie_break_takes_lowest_index():
    # zero weights make every partition score identical
    p = SSEParams(num_partitions=4, top_k=2, gate_weight=np.zeros((3, 4)))
    _, selected = sse_gate(np.ones(3), p)
    assert selected == (0, 1)


def test_always_selected_is_appended_without_evicting():
    rng = np.random.default_rng(7)
    base = make_params(rng, 5, num_partitions=6, top_k=2)
    for trial in range(40):
        x = rng.standard_normal(5)
        gates, plain = sse_gate(x, base)
        pinned_idx = trial % 6
        pinned = SSEParams(
            num_partitions=6, top_k=2, gate_weight=base.gate_weight, always_selected=pinned_idx
        )
        _, got = sse_gate(x, pinned)
        assert set(got) == set(plain) | {pinned_idx}
        assert len(got) <= 3  # at most top_k + 1
        assert set(plain) <= set(got)  # no winner evicted


def test_step_touches_only_selected_partitions():
    rng = np.random.default_rng(9)
    d, d_v = 4, 3
    state = SSEState.zeros(5, d, d_v)
    state.partitions += rng.standard_normal(state.partitions.shape)
    before = state.partitions.copy()
    gates = softmax_rows(rng.standard_normal(5))
    out = sse_step(state, rng.standard_normal(d), rng.standard_normal(d), rng.standard_normal(d_v), gates, (1, 3))
    assert np.array_equal(state.partitions[0], before[0])  # bitwise untouched
    assert np.array_equal(state.partitions[2], before[2])
    assert np.array_equal(state.partitions[4], before[4])
    assert not np.array_equal(state.partitions[1], before[1])
    assert not np.array_equal(state.partitions[3], before[3])
    assert np.array_equal(state.freq, [0, 1, 0, 1, 0])
    assert out.shape == (d_v,)


def test_step_update_then_read_order():
    # the freshly updated state must be visible to the same step's read
    state = SSEState.zeros(1, 1, 1)
    q = np.array([2.0])
    k = np.array([3.0])
    v = np.array([5.0])
    out = sse_step(state, q, k, v, np.array([1.0]), (0,))
    assert out[0] == 2.0 * 3.0 * 5.0


def test_single_partition_equals_linear_recurrent():
    rng = np.random.default_rng(12)
    for n, d in [(1, 2), (7, 4), (20, 3)]:
        q, k, v = (rng.standard_normal((n, d)) * 0.5 for _ in range(3))
        p = SSEParams(num_partitions=1, top_k=1, gate_weight=np.zeros((d, 1)))
        got = sse_forward(q, q, k, v, p)
        assert np.array_equal(got.outputs, linear_attention_recurrent(q, k, v))


def test_forward_matches_manual_scan_oracle():
    rng = np.random.default_rng(13)
    n, d, d_v, num, k_sel = 9, 3, 3, 4, 2
    x = rng.standard_normal((n, d))
    q, kk, v = (rng.standard_normal((n, d)) for _ in range(3))
    p = make_params(np.random.default_rng(99), d, num_partitions=num, top_k=k_sel)
    got = sse_forward(x, q, kk, v, p)
    # scalar-loop re-simulation
    states = np.zeros((num, d, d_v))
    freq = np.zeros(num)
    for t in range(n):
        gates = softmax_rows(x[t] @ p.gate_weight)
        selected = topk_oracle(gates, k_sel)
        out = np.zeros(d_v)
        for i in selected:
            states[i] += gates[i] * np.outer(kk[t], v[t])
            freq[i] += 1
            out += gates[i] * (q[t] @ states[i])
        assert list(got.selections[t]) == selected
        assert np.max(np.abs(got.outputs[t] - out)) < 1e-12
        assert np.max(np.abs(got.freqs[t] - freq / (t + 1))) < 1e-15


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
    rng = np.random.default_rng(15)
    n, d = 10, 3
    x, q, k, v = (rng.standard_normal((n, d)) for _ in range(4))
    p = make_params(np.random.default_rng(77), d)
    base = sse_forward(x, q, k, v, p).outputs
    x2, k2 = x.copy(), k.copy()
    x2[7] += 3.0
    k2[8] -= 2.0
    got = sse_forward(x2, q, k2, v, p).outputs
    assert np.array_equal(base[:7], got[:7])


def test_params_validation():
    with pytest.raises(ValueError):
        SSEParams(num_partitions=2, top_k=3, gate_weight=np.zeros((3, 2)))
    with pytest.raises(ValueError):
        SSEParams(num_partitions=2, top_k=1, gate_weight=np.zeros((3, 2)), always_selected=5)
    with pytest.raises(ValueError):
        SSEParams(num_partitions=2, top_k=1, gate_weight=np.zeros((3, 2)), feature_map="relu")
