"""Acceptance gate: ten numbered criteria, one test and one printed
PASS/FAIL line each.

Each test computes its condition first, prints the verdict line, then
asserts, so the line is emitted for failing runs too. Run with -rP (the
repository default) to see the lines for passing tests as well.
"""

from __future__ import annotations

import contextlib
import io
import json
import time
from dataclasses import asdict
from fractions import Fraction

import numpy as np
from conftest import int32_tile_product, make_dip_profile

from dssalab import quant, spike, tensorio
from dssalab.attention import (
    full_attention,
    linear_attention_parallel,
    linear_attention_recurrent,
    swa,
)
from dssalab.cli import main as cli_main
from dssalab.costmodel import CostParams, scaling_rows
from dssalab.fp8 import CODEPOINTS
from dssalab.losses import aux_loss, combined_loss_llm, kd_topk_kl
from dssalab.moba import MobaParams, activation_ratio, moba_forward
from dssalab.sse import SSEParams, sse_forward
from dssalab.stack import (
    SensitivityProfile,
    StackConfig,
    default_plan,
    init_stack_params,
    merge_gate,
    select_moba_layers,
    stack_forward,
)

KIB = 1024
MIB = 1024 * 1024


def report(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'}  {detail}")


# ----------------------------------------------------------------- criterion 1


def test_criterion_01_attention_oracle_equivalences():
    # attn-check's table: every mechanism's package path against its
    # reference, sparse MoBA and the banded sliding window included
    tolerance = 1e-10
    argv = ["attn-check", "--sizes", "1,4,8,16,64", "--dims", "2,4,8", "--seed", "11001",
            "--tolerance", str(tolerance)]
    start = time.perf_counter()
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli_main([*argv, "--trials", "100"])
    elapsed = time.perf_counter() - start
    worst = {p["name"]: p["max_abs_error"] for p in json.loads(buf.getvalue())["properties"]}
    # the negative control: one dropped key in the window and sparse MoBA
    # references, one dropped partition in the gated SSE one
    with contextlib.redirect_stdout(io.StringIO()):
        fault_code = cli_main([*argv, "--trials", "1", "--inject-fault"])
    ok = (code == 0 and fault_code == 1 and len(worst) == 7
          and all(err <= tolerance for err in worst.values()) and elapsed < 60.0)
    report(
        1,
        ok,
        f"attn-check's {len(worst)} oracle equivalences at 1e-10 over n in {{1,4,8,16,64}}, "
        f"d in {{2,4,8}}, 100 instances each; worst {max(worst.values()):.3e}, {elapsed:.1f}s; "
        f"injected fault exits {fault_code}",
    )
    assert ok, (code, fault_code, worst)


# ----------------------------------------------------------------- criterion 2


def _prefix_unchanged(base: np.ndarray, mutated: np.ndarray, upto: int, exact: bool) -> bool:
    if exact:
        return bool(np.array_equal(base[:upto], mutated[:upto]))
    if upto == 0:
        return True
    return float(np.max(np.abs(base[:upto] - mutated[:upto]))) <= 1e-12


def test_criterion_02_causality_under_future_mutation():
    n, d, mutate_at = 10, 4, 6
    seeds = range(20)
    ok = True

    def mechanisms(q, k, v):
        sse_params = SSEParams(
            num_partitions=2, top_k=1, gate_weight=np.ones((d, 2)), feature_map="silu"
        )
        return {
            "full": full_attention(q, k, v),
            "swa": swa(q, k, v, window=3),
            "linear_parallel": linear_attention_parallel(q, k, v),
            "linear_recurrent": linear_attention_recurrent(q, k, v),
            "sse": sse_forward(q, q, k, v, sse_params).outputs,
            "moba": moba_forward(q, k, v, MobaParams(block_size=2, top_k=2)),
        }

    for seed in seeds:
        rng = np.random.default_rng(seed)
        for exact, maker in (
            (True, lambda: rng.integers(-3, 4, size=(n, d)).astype(np.float64)),
            (False, lambda: rng.standard_normal((n, d)) * 0.4),
        ):
            q, k, v = maker(), maker(), maker()
            base = mechanisms(q, k, v)
            for target_name in ("q", "k", "v"):
                q2, k2, v2 = q.copy(), k.copy(), v.copy()
                {"q": q2, "k": k2, "v": v2}[target_name][mutate_at:] += 5.0
                mutated = mechanisms(q2, k2, v2)
                for name in base:
                    # mutating q at position m can change row m itself; rows
                    # before m must never move
                    if not _prefix_unchanged(base[name], mutated[name], mutate_at, exact):
                        ok = False

    # the full default-depth hybrid plan, inference mode
    cfg = StackConfig(d_model=8, n_heads=2, d_ff=16, sse_partitions=2, sse_top_k=1,
                      moba_block_size=2, moba_top_k=2, swa_window=3)
    plan = default_plan()
    params = init_stack_params(plan, cfg, seed=5)
    for seed in range(20):
        rng = np.random.default_rng(1000 + seed)
        x = rng.standard_normal((n, cfg.d_model)) * 0.3
        x2 = x.copy()
        x2[mutate_at:] += 5.0
        h1 = stack_forward(x, params, cfg).hidden
        h2 = stack_forward(x2, params, cfg).hidden
        if not _prefix_unchanged(h1, h2, mutate_at, exact=False):
            ok = False

    report(2, ok, "future-token mutation leaves earlier outputs fixed for every "
                  "mechanism and the default 36-layer plan, 20 seeds each")
    assert ok


# ----------------------------------------------------------------- criterion 3


def test_criterion_03_spike_path_bit_exact():
    rng = np.random.default_rng(303)
    ok = True
    for _ in range(50):
        a = rng.normal(0.0, 2.0, size=(256, 256))
        w = rng.normal(0.0, 0.5, size=(256, 256))
        qa = quant.quantize_activation_groups(a)
        qw = quant.quantize_weight_blocks(w)
        oracle = int32_tile_product(qa, qw)
        train = spike.spike_encode(qa)
        got, op_report = spike.spike_matmul(train, qw)
        reference = quant.int8_matmul_reference(qa, qw)
        if not (np.array_equal(reference, oracle) and np.array_equal(got, oracle)):
            ok = False
        # counting identity: every potential event is either added or skipped
        fired = int(np.abs(train.planes).sum())
        if op_report.add_events != fired * qw.shape[1]:
            ok = False
        if op_report.add_events + op_report.skipped_events != 7 * op_report.dense_mac_equivalent:
            ok = False

    # exhaustive signed-code roundtrip
    codes = np.arange(-127, 128, dtype=np.int8).reshape(1, -1)
    qa = quant.QuantizedGroupActivation(codes=codes, scales=np.ones((1, 1)), group_size=255)
    back = spike.spike_decode(spike.spike_encode(qa))
    if not np.array_equal(back.codes, codes):
        ok = False

    report(3, ok, "INT8 reference and spike path bit-exact vs the int32 tile oracle on 50 256x256 "
                  "matmuls, event counting identity exact, encode/decode exhaustive on [-127,127]")
    assert ok


# ----------------------------------------------------------------- criterion 4


def _fp8_oracle_table() -> list[float]:
    table = []
    for code in range(256):
        sign = -1 if code & 0x80 else 1
        exp = (code >> 3) & 0x0F
        man = code & 0x07
        if exp == 0x0F and man == 0x07:
            table.append(float("nan"))
        elif exp == 0:
            table.append(float(sign * man * Fraction(1, 512)))
        else:
            base = Fraction(2) ** (exp - 7)
            table.append(float(sign * (base + man * base / 8)))
    return table


def test_criterion_04_quantization_quality():
    rng = np.random.default_rng(404)
    ok = True

    # activation roundtrip error is bounded by half a step
    for _ in range(200):
        x = rng.normal(0.0, 3.0, size=(4, 128))
        qa = quant.quantize_activation_groups(x, group_size=128)
        err = np.abs(qa.dequantize() - x)
        bound = qa.scales[:, 0:1] / 2.0 + 1e-15
        if not np.all(err <= bound):
            ok = False

    # searched clip never loses to the fixed clip c=1
    for _ in range(1000):
        block = rng.normal(0.0, 1.0, size=(128, 128))
        if rng.random() < 0.3:
            block[rng.integers(0, 128), rng.integers(0, 128)] *= 50.0  # outlier
        searched = quant.quantize_weight_blocks(block)
        fixed = quant.quantize_weight_blocks(block, grid=(1.0,))
        if searched.mse[0, 0] > fixed.mse[0, 0] + 1e-18:
            ok = False

    # full 8-bit float table against the independent rational oracle
    want = _fp8_oracle_table()
    for code in range(256):
        if np.isnan(want[code]) != np.isnan(CODEPOINTS[code]):
            ok = False
        elif not np.isnan(want[code]) and CODEPOINTS[code] != want[code]:
            ok = False

    report(4, ok, "activation roundtrip within half a step, searched clip never worse "
                  "than clip 1.0 on 1000 blocks, 8-bit float table matches the oracle")
    assert ok


# ----------------------------------------------------------------- criterion 5


def test_criterion_05_sizing_and_plan_counts():
    ratios = [
        activation_ratio(8 * KIB, 512, 4),
        activation_ratio(64 * KIB, 1024, 8),
        activation_ratio(256 * KIB, 4096, 12),
        activation_ratio(512 * KIB, 4096, 12),
    ]
    counts = default_plan().counts()
    ok = ratios == [0.25, 0.125, 0.1875, 0.09375] and counts == {
        "sse_swa": 26,
        "moba": 9,
        "fa": 1,
    }
    report(5, ok, f"block-attention activation ratios {ratios}, plan counts {counts}")
    assert ok, (ratios, counts)


# ----------------------------------------------------------------- criterion 6


def test_criterion_06_loss_identities():
    ok = True

    rng = np.random.default_rng(606)
    logits = rng.normal(0.0, 3.0, size=(16, 64))
    self_kd = kd_topk_kl(logits, logits.copy(), top_k=16).value
    if abs(self_kd) > 1e-12:
        ok = False

    gates = np.full((32, 4), 0.25)
    freqs = np.full((32, 4), 0.5)
    per_token = aux_loss(gates, freqs, num_partitions=4, top_k=2).per_token
    if abs(per_token - 1.0) > 1e-12:
        ok = False

    for _ in range(100):
        ce, aux = rng.uniform(0.0, 5.0, size=2)
        kd = rng.uniform(-4.0, 4.0)
        mse = rng.uniform(1e-9, 10.0)
        c, alpha, beta = rng.uniform(0.0, 2.0, size=3)
        got = combined_loss_llm(ce=ce, aux=aux, kd=kd, mse=mse, c=c, alpha=alpha, beta=beta)
        want = ce + c * aux + alpha * kd + beta * abs(kd)
        if abs(got.combined - want) > 1e-12 * max(1.0, abs(want)):
            ok = False

    report(6, ok, "self-distillation KL 0, uniform balance penalty exactly 1 per token, "
                  "ratio-weighted term equals beta*|kd| on 100 draws")
    assert ok


# ----------------------------------------------------------------- criterion 7


def test_criterion_07_long_context_cost_claims():
    lengths = [128 * KIB, 256 * KIB, 512 * KIB, MIB, 2 * MIB, 4 * MIB]
    rows = scaling_rows(lengths, CostParams())
    ratios = [r.ratio for r in rows]
    increasing = all(b > a for a, b in zip(ratios, ratios[1:]))
    subquadratic = all(
        b.dssa_cost / a.dssa_cost < 4.0 for a, b in zip(rows, rows[1:])
    )
    kv = rows[-1].fa_kv_bytes / rows[-1].dssa_kv_bytes  # at 4M
    kv_ok = abs(kv - 3.6) <= 0.05
    ok = increasing and subquadratic and kv_ok
    report(7, ok, f"dense/hybrid cost ratio grows {ratios[0]:.2f}->{ratios[-1]:.2f}, "
                  f"hybrid doubling stays under 4x, KV ratio {kv:.4f} within 3.6+-0.05")
    assert ok, (ratios, kv)


# ----------------------------------------------------------------- criterion 8


def test_criterion_08_layer_selection():
    profile, planted = make_dip_profile(seed=42)
    selected = select_moba_layers(profile, drop_threshold=5.0)
    flat = SensitivityProfile(scores=(61.5,) * 36)
    flat_selected = select_moba_layers(flat, drop_threshold=5.0)
    ok = selected == planted and flat_selected == []
    report(8, ok, f"dip fixture selects exactly {len(planted)} planted layers, "
                  "flat profile selects none")
    assert ok, (selected, planted, flat_selected)


# ----------------------------------------------------------------- criterion 9


def test_criterion_09_merge_gate_statistics():
    rng = np.random.default_rng(909)
    draws = np.array([merge_gate(0.5, rng, training=True) for _ in range(10_000)])
    mean_ok = abs(float(draws.mean()) - 1.0) <= 0.05
    inference = merge_gate(0.5, np.random.default_rng(1), training=False)
    p_zero = merge_gate(0.0, np.random.default_rng(2), training=True)
    equiv_ok = abs(inference - p_zero) <= 1e-12 and inference == 1.0
    ok = mean_ok and equiv_ok
    report(9, ok, f"dropout gate mean {float(draws.mean()):.4f} within 1+-0.05 at p=0.5, "
                  "inference identical to p=0 training")
    assert ok


# ---------------------------------------------------------------- criterion 10


def test_criterion_10_cli_determinism(tmp_path):
    rng = np.random.default_rng(1010)
    tensor_path = tmp_path / "tensor.json"
    tensorio.save_tensor_json(str(tensor_path), rng.normal(0.0, 1.0, size=(16, 16)))
    profile, _ = make_dip_profile(seed=42)
    profile_path = tmp_path / "profile.json"
    profile_path.write_text(json.dumps(asdict(profile)))

    commands = [
        ["attn-check", "--sizes", "1,4", "--dims", "2", "--trials", "2", "--seed", "3"],
        ["quant-report", "--input", str(tensor_path), "--block-size", "8"],
        ["spike-report", "--input", str(tensor_path), "--group-size", "8"],
        ["scaling-table", "--lengths", "128k,256k,512k"],
        ["plan-show"],
        ["layer-select", "--profile", str(profile_path), "--threshold", "5.0"],
        ["loss-check", "--seed", "7"],
        ["moba-trace", "--seed", "2", "--n", "8", "--d", "3", "--block-size", "2",
         "--top-k", "2"],
    ]

    def run(argv: list[str]) -> tuple[int, bytes]:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli_main(argv)
        return code, buf.getvalue().encode()

    ok = True
    for argv in commands:
        code_a, out_a = run(argv)
        code_b, out_b = run(argv)
        if code_a != 0 or code_b != 0 or out_a != out_b:
            ok = False

    report(10, ok, f"all {len(commands)} subcommands byte-identical across repeated "
                   "same-seed runs")
    assert ok
