"""Tests for the analytical FLOP and memory model.

Closed-form layer costs are re-derived by hand in each test; the hybrid
versus dense comparisons check the monotone growth and asymptote claims
on the long-context length grid.
"""

from __future__ import annotations

import pytest

from dssalab.costmodel import (
    FLOPS_PER_MAC,
    CostParams,
    CostReport,
    all_fa_plan,
    auto_moba_schedule,
    cost_fa,
    cost_moba,
    cost_sse,
    cost_swa,
    kv_ratio,
    layer_cost,
    plan_cost,
    scaling_rows,
)
from dssalab.stack import LayerPlan, default_plan

KIB = 1024
MIB = 1024 * 1024


def test_flops_per_mac_constant():
    assert FLOPS_PER_MAC == 2


def test_fa_layer_closed_form():
    entry = cost_fa(n=1000, d=64, bytes_per_value=2)
    assert entry.prefill_flops == 4 * 1000 * 1000 * 64
    assert entry.decode_flops == 4 * 1000 * 64
    assert entry.kv_bytes == 2 * 1000 * 64 * 2
    assert entry.state_bytes == 0.0


def test_moba_layer_closed_form():
    n, d, b, k = 8192, 64, 512, 4
    entry = cost_moba(n, d, b, k)
    attended = min(k * b, n)
    assert entry.prefill_flops == 2 * n * (n / b) * d + 4 * n * attended * d
    assert entry.decode_flops == 2 * (n / b) * d + 4 * attended * d
    assert entry.kv_bytes == 2 * n * d * 2


def test_moba_attended_span_caps_at_n():
    # k*b >= n means every token is attended; the score pass still costs extra
    n, d = 1024, 32
    entry = cost_moba(n, d, b=256, k=8)  # k*b = 2048 > n
    dense = cost_fa(n, d)
    assert entry.prefill_flops == dense.prefill_flops + 2 * n * (n / 256) * d
    assert entry.prefill_flops > dense.prefill_flops


def test_sse_layer_closed_form_and_length_independence():
    entry = cost_sse(n=5000, d=64, num_partitions=4, k=2, d_v=128)
    per_token = 4 * 64 * 128 * (2 + 1)
    assert entry.prefill_flops == 5000 * per_token
    assert entry.decode_flops == per_token
    assert entry.kv_bytes == 0.0
    assert entry.state_bytes == 4 * 64 * 128 * 2
    # decode cost and state do not grow with n
    longer = cost_sse(n=500000, d=64, num_partitions=4, k=2, d_v=128)
    assert longer.decode_flops == entry.decode_flops
    assert longer.state_bytes == entry.state_bytes


def test_swa_layer_closed_form_and_window_cap():
    entry = cost_swa(n=10000, d=64, w=128)
    assert entry.prefill_flops == 4 * 10000 * 128 * 64
    assert entry.kv_bytes == 2 * 128 * 64 * 2
    # n below the window: the span is n itself
    short = cost_swa(n=16, d=64, w=128)
    assert short.prefill_flops == 4 * 16 * 16 * 64
    assert short.kv_bytes == 2 * 16 * 64 * 2
    # KV bytes stop growing once n exceeds the window
    assert cost_swa(n=99999, d=64, w=128).kv_bytes == entry.kv_bytes


def test_layer_cost_dispatch_and_merge():
    p = CostParams(d_model=64, swa_window=16, sse_partitions=4, sse_top_k=2,
                   sse_value_dim=8, moba_block_size=32, moba_top_k=2)
    merged = layer_cost("sse_swa", 256, p)
    sse = cost_sse(256, 64, 4, 2, 8, 2)
    swa = cost_swa(256, 64, 16, 2)
    assert merged.prefill_flops == sse.prefill_flops + swa.prefill_flops
    assert merged.decode_flops == sse.decode_flops + swa.decode_flops
    assert merged.kv_bytes == swa.kv_bytes
    assert merged.state_bytes == sse.state_bytes
    with pytest.raises(ValueError):
        layer_cost("mystery", 256, p)


def test_report_totals_are_sums_of_layers():
    p = CostParams(d_model=128)
    report = plan_cost(default_plan(), 4096, p)
    assert isinstance(report, CostReport)
    assert len(report.layers) == 36
    assert report.prefill_flops == sum(l.prefill_flops for l in report.layers)
    assert report.decode_flops == sum(l.decode_flops for l in report.layers)
    assert report.kv_bytes == sum(l.kv_bytes for l in report.layers)
    assert report.state_bytes == sum(l.state_bytes for l in report.layers)
    assert report.total_bytes == report.kv_bytes + report.state_bytes
    assert report.n == 4096


def test_moba_never_cheaper_than_needed_vs_fa_when_dense():
    # with k*b >= n the block mechanism does extra scoring work on top of
    # dense attention, so it can only cost more
    p_small = CostParams(d_model=64, moba_block_size=64, moba_top_k=1024)
    n = 4096
    assert layer_cost("moba", n, p_small).prefill_flops >= layer_cost("fa", n, p_small).prefill_flops


def test_scaling_ratio_strictly_increasing_on_long_grid():
    lengths = [128 * KIB, 256 * KIB, 512 * KIB, MIB, 2 * MIB, 4 * MIB]
    rows = scaling_rows(lengths, CostParams())
    ratios = [r.ratio for r in rows]
    for a, b in zip(ratios, ratios[1:]):
        assert b > a
    assert all(r.ratio > 1.0 for r in rows)
    assert [r.n for r in rows] == lengths


def test_hybrid_cost_growth_is_subquadratic():
    lengths = [128 * KIB, 256 * KIB, 512 * KIB, MIB, 2 * MIB, 4 * MIB]
    rows = scaling_rows(lengths, CostParams())
    for a, b in zip(rows, rows[1:]):
        assert b.dssa_cost / a.dssa_cost < 4.0  # doubling n less than quadruples cost
        assert b.fa_cost / a.fa_cost == pytest.approx(4.0, rel=0.01)  # dense is quadratic


def test_kv_ratio_approaches_design_target():
    assert kv_ratio(default_plan(), 4 * MIB, CostParams()) == pytest.approx(3.6, abs=0.05)
    # the ratio grows toward that ceiling with n
    r_small = kv_ratio(default_plan(), 64 * KIB, CostParams())
    r_big = kv_ratio(default_plan(), 4 * MIB, CostParams())
    assert r_big > r_small


def test_auto_schedule_mapping():
    assert auto_moba_schedule(1) == (512, 4)
    assert auto_moba_schedule(8192) == (512, 4)
    assert auto_moba_schedule(8193) == (1024, 8)
    assert auto_moba_schedule(65536) == (1024, 8)
    assert auto_moba_schedule(65537) == (4096, 12)
    assert auto_moba_schedule(4 * MIB) == (4096, 12)
    with pytest.raises(ValueError):
        auto_moba_schedule(0)


def test_scaling_rows_auto_schedule_activation_ratios():
    lengths = [8 * KIB, 64 * KIB, 256 * KIB, 512 * KIB]
    rows = scaling_rows(lengths, CostParams(), schedule="auto")
    got = [r.moba_activation_ratio for r in rows]
    assert got == [0.25, 0.125, 0.1875, 0.09375]


def test_scaling_rows_fixed_schedule_uses_params():
    rows = scaling_rows([64 * KIB], CostParams(moba_block_size=1024, moba_top_k=8))
    assert rows[0].moba_activation_ratio == 0.125
    with pytest.raises(ValueError):
        scaling_rows([1024], CostParams(), schedule="adaptive")


def test_scaling_rows_respects_custom_plan():
    plan = LayerPlan(kinds=("fa", "fa"))
    rows = scaling_rows([4096], CostParams(), plan=plan)
    assert rows[0].ratio == pytest.approx(1.0, abs=1e-12)
    assert rows[0].fa_cost == rows[0].dssa_cost


def test_short_lengths_do_not_blow_up():
    rows = scaling_rows([1, 2, 16], CostParams(d_model=64))
    for r in rows:
        assert r.dssa_cost > 0.0
        assert r.fa_cost > 0.0
        assert r.moba_activation_ratio == 1.0  # k*b covers everything


def test_params_validation():
    with pytest.raises(ValueError):
        CostParams(d_model=0)
    with pytest.raises(ValueError):
        CostParams(moba_top_k=0)
    with pytest.raises(ValueError):
        cost_fa(0, 64)


def test_all_fa_plan_helper():
    plan = all_fa_plan(5)
    assert plan.kinds == ("fa",) * 5
