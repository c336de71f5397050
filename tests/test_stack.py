from __future__ import annotations

import numpy as np
import pytest

from conftest import make_dip_profile
from dssalab import stack
from dssalab.attention import ROW_CHUNK, causal_keep, full_attention, masked_attention, window_keep
from dssalab.stack import (
    DEFAULT_FA_LAYERS,
    DEFAULT_MOBA_LAYERS,
    LayerPlan,
    SensitivityProfile,
    StackConfig,
    default_plan,
    init_stack_params,
    merge_gate,
    select_moba_layers,
    sse_swa_block,
    stack_forward,
)
from dssalab.tensor_ops import ShapeError, rms_norm, silu


def test_default_plan_counts_and_positions():
    plan = default_plan()
    assert len(plan) == 36
    counts = plan.counts()
    assert counts == {"sse_swa": 26, "moba": 9, "fa": 1}
    for kind, layers in (("moba", DEFAULT_MOBA_LAYERS), ("fa", DEFAULT_FA_LAYERS)):
        assert tuple(i for i, item in enumerate(plan.kinds) if item == kind) == layers


def test_all_fa_stack_matches_composed_reference():
    rng = np.random.default_rng(20)
    config = StackConfig(d_model=8, n_heads=2, d_ff=12)
    plan = LayerPlan(kinds=("fa", "fa"))
    params = init_stack_params(plan, config, seed=5)
    x = rng.standard_normal((8, 8)) * 0.4
    got = stack_forward(x, params, config).hidden

    # re-derive layer by layer from the attention oracle
    hidden = x.copy()
    dh = config.d_head
    for layer in params:
        lw = layer.weights
        normed = rms_norm(hidden, lw["norm_attn"])
        q = (normed @ lw["fa_wq"]) / np.sqrt(dh)
        k = normed @ lw["fa_wk"]
        v = normed @ lw["fa_wv"]
        heads = [
            full_attention(q[:, h * dh : (h + 1) * dh], k[:, h * dh : (h + 1) * dh], v[:, h * dh : (h + 1) * dh])
            for h in range(config.n_heads)
        ]
        hidden = hidden + np.concatenate(heads, axis=1) @ lw["fa_wo"]
        normed = rms_norm(hidden, lw["norm_mlp"])
        hidden = hidden + (silu(normed @ lw["mlp_w1"]) * (normed @ lw["mlp_w3"])) @ lw["mlp_w2"]
    assert np.max(np.abs(got - hidden)) < 1e-12


def test_default_stack_across_chunk_edges_matches_dense_masks(monkeypatch):
    # the benchmark's stack at lengths on both sides of a chunk edge, against
    # the same stack with every softmax mechanism swapped for the dense oracle
    config = StackConfig()
    params = init_stack_params(default_plan(), config, seed=0)
    rng = np.random.default_rng(23)
    lengths = (ROW_CHUNK - 1, ROW_CHUNK + 1, 256, 600)
    xs = [rng.normal(0.0, 1.0, (n, config.d_model)) for n in lengths]
    got = [stack_forward(x, params, config).hidden for x in xs]
    assert config.moba_block_size >= max(lengths)  # one block: MoBA is full attention

    def dense(q, k, v):
        return masked_attention(q, k, v, causal_keep(len(q)))

    monkeypatch.setattr(stack, "full_attention", dense)
    monkeypatch.setattr(stack, "moba_forward", lambda q, k, v, p: dense(q, k, v))
    monkeypatch.setattr(stack, "swa", lambda q, k, v, w: masked_attention(q, k, v, window_keep(len(q), w)))
    for x, hidden in zip(xs, got):
        want = stack_forward(x, params, config).hidden
        assert np.max(np.abs(hidden - want)) <= 1e-12 * np.max(np.abs(want)), x.shape


def test_zeroed_attention_layer_passes_input_through():
    rng = np.random.default_rng(21)
    config = StackConfig(d_model=6, n_heads=2, d_ff=8, swa_window=3)
    plan = LayerPlan(kinds=("sse_swa",))
    params = init_stack_params(plan, config, seed=0)
    for name, w in params[0].weights.items():
        if name.startswith(("sse_", "swa_", "mlp_")):
            params[0].weights[name] = np.zeros_like(w)
    x = rng.standard_normal((5, 6))
    trace = stack_forward(x, params, config)
    assert np.array_equal(trace.hidden, x)


def test_stack_forward_causality_mutation():
    rng = np.random.default_rng(22)
    config = StackConfig(d_model=8, n_heads=2, d_ff=12, moba_block_size=3, swa_window=3)
    plan = LayerPlan(kinds=("moba", "sse_swa", "fa"))
    params = init_stack_params(plan, config, seed=3)
    x = rng.standard_normal((9, 8)) * 0.4
    base = stack_forward(x, params, config).hidden
    for s in (5, 8):
        x2 = x.copy()
        x2[s] += 2.0
        got = stack_forward(x2, params, config).hidden
        assert np.max(np.abs(base[:s] - got[:s])) < 1e-12


def test_stack_forward_deterministic_given_seed():
    rng = np.random.default_rng(23)
    config = StackConfig(d_model=4, n_heads=1, d_ff=8, swa_window=2)
    plan = LayerPlan(kinds=("sse_swa", "sse_swa"))
    params = init_stack_params(plan, config, seed=1)
    x = rng.standard_normal((6, 4)) * 0.3
    a = stack_forward(x, params, config, training=True, seed=9)
    b = stack_forward(x, params, config, training=True, seed=9)
    assert np.array_equal(a.hidden, b.hidden)
    assert a.merge_gates == b.merge_gates
    c = stack_forward(x, params, config, training=True, seed=10)
    assert a.merge_gates != c.merge_gates or np.array_equal(a.hidden, c.hidden)


def test_inference_merge_gates_are_all_one():
    config = StackConfig(d_model=4, n_heads=1, d_ff=8, swa_window=2, merge_dropout=0.5)
    plan = LayerPlan(kinds=("sse_swa", "fa", "sse_swa"))
    params = init_stack_params(plan, config, seed=2)
    x = np.random.default_rng(0).standard_normal((5, 4)) * 0.3
    trace = stack_forward(x, params, config, training=False)
    assert trace.merge_gates == [1.0, 1.0]  # one entry per merged layer only


def test_merge_gate_statistics_and_inverted_scaling():
    rng = np.random.default_rng(24)
    draws = np.array([merge_gate(0.5, rng, training=True) for _ in range(10_000)])
    assert set(np.unique(draws)) <= {0.0, 2.0}
    assert abs(draws.mean() - 1.0) < 0.05
    assert merge_gate(0.5, None, training=False) == 1.0
    assert merge_gate(0.0, None, training=True) == 1.0
    assert merge_gate(1.0, rng, training=True) == 0.0
    with pytest.raises(ValueError):
        merge_gate(1.5, rng, training=True)
    with pytest.raises(ValueError):
        merge_gate(0.5, None, training=True)


def test_sse_swa_block_merge_semantics():
    rng = np.random.default_rng(25)
    sse_out = rng.standard_normal((4, 6))
    swa_out = rng.standard_normal((4, 6))
    w1 = rng.uniform(0.5, 1.5, 6)
    w2 = rng.uniform(0.5, 1.5, 6)
    want = rms_norm(sse_out, w1) + rms_norm(swa_out, w2)
    got = sse_swa_block(sse_out, swa_out, w1, w2, gate=1.0)
    assert np.max(np.abs(got - want)) == 0.0
    # a zero gate (dropped window branch) keeps only the state branch
    dropped = sse_swa_block(sse_out, swa_out, w1, w2, gate=0.0)
    assert np.array_equal(dropped, rms_norm(sse_out, w1))
    with pytest.raises(ShapeError):
        sse_swa_block(sse_out, swa_out[:2], w1, w2)


def test_config_rejects_heads_not_dividing_d_model():
    with pytest.raises(ValueError):
        StackConfig(d_model=6, n_heads=4)


def test_init_params_seeded_and_shaped():
    config = StackConfig(d_model=8, n_heads=2, d_ff=16)
    plan = LayerPlan(kinds=("sse_swa", "moba"))
    a = init_stack_params(plan, config, seed=7)
    b = init_stack_params(plan, config, seed=7)
    assert all(
        np.array_equal(a[i].weights[name], b[i].weights[name])
        for i in range(2)
        for name in a[i].weights
    )
    assert a[0].weights["sse_gate"].shape == (8, config.sse_partitions)
    assert a[1].weights["moba_wq"].shape == (8, 8)


def test_select_flat_profile_is_empty():
    profile = SensitivityProfile(scores=(61.5,) * 36)
    assert select_moba_layers(profile, 5.0) == []


def test_select_single_dip_any_position():
    for dip_at in (0, 3, 7):
        scores = [60.0] * 8
        scores[dip_at] -= 10.0
        profile = SensitivityProfile(scores=tuple(scores))
        assert select_moba_layers(profile, 5.0) == [dip_at]


def test_select_equal_dips_are_both_picked():
    scores = [60.0] * 10
    scores[2] = scores[6] = 50.0
    profile = SensitivityProfile(scores=tuple(scores))
    assert select_moba_layers(profile, 5.0) == [2, 6]


def test_select_planted_dip_fixture():
    profile, expected = make_dip_profile(seed=42)
    assert select_moba_layers(profile, 5.0) == expected


def test_select_validation():
    with pytest.raises(ValueError):
        select_moba_layers(SensitivityProfile(scores=()), 1.0)
    with pytest.raises(ValueError):
        select_moba_layers(SensitivityProfile(scores=(1.0,)), -1.0)
