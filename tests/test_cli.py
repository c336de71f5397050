"""Tests for the command-line surface.

Every subcommand is exercised through main(argv) with captured stdout;
determinism is checked byte for byte across repeated same-seed runs.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import struct
import warnings
from dataclasses import asdict, replace

import numpy as np
import pytest
from conftest import make_dip_profile
from hypothesis import given
from hypothesis import strategies as st

from dssalab import attention, cli, quant, spike, sse, tensorio
from dssalab.cli import main, parse_length
from dssalab.losses import combined_loss_llm
from dssalab.stack import LAYER_KINDS, LayerPlan, default_plan


def run_cli(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


@pytest.fixture
def tensor_file(tmp_path):
    rng = np.random.default_rng(9)
    path = tmp_path / "tensor.json"
    tensorio.save_tensor_json(str(path), rng.normal(0.0, 1.0, size=(16, 16)))
    return str(path)


def test_parse_length_suffixes():
    assert parse_length("4096") == 4096
    assert parse_length("128k") == 128 * 1024
    assert parse_length("128K") == 128 * 1024
    assert parse_length("1M") == 1024 * 1024
    assert parse_length("2m") == 2 * 1024 * 1024
    with pytest.raises(ValueError):
        parse_length("12x")


def test_attn_check_passes_and_reports():
    code, out = run_cli(["attn-check", "--sizes", "1,4,8", "--dims", "2,4", "--trials", "2"])
    assert code == 0
    blob = json.loads(out)
    assert blob["schema_version"] == 1
    assert blob["pass"] is True
    names = {p["name"] for p in blob["properties"]}
    assert names == {
        "linear_parallel_vs_recurrent",
        "sse_single_partition_vs_linear_parallel",
        "sse_gated_vs_recurrent",
        "moba_select_all_vs_full",
        "moba_sparse_vs_masked",
        "swa_full_window_vs_full",
        "swa_vs_masked",
    }
    assert all(p["pass"] for p in blob["properties"])
    assert all(p["max_abs_error"] <= p["tolerance"] for p in blob["properties"])


def test_attn_check_fault_injection_fails():
    code, out = run_cli(["attn-check", "--sizes", "4", "--dims", "2", "--trials", "1",
                         "--inject-fault"])
    assert code == 1
    blob = json.loads(out)
    assert blob["pass"] is False
    by_name = {p["name"]: p for p in blob["properties"]}
    assert by_name["swa_full_window_vs_full"]["pass"] is False
    assert by_name["moba_sparse_vs_masked"]["pass"] is False
    assert by_name["swa_vs_masked"]["pass"] is False
    assert by_name["sse_gated_vs_recurrent"]["pass"] is False
    # the fault only touches the window, sparse MoBA and gated SSE suites
    assert by_name["linear_parallel_vs_recurrent"]["pass"] is True
    assert by_name["moba_select_all_vs_full"]["pass"] is True


def test_attn_check_sees_the_sse_gates(monkeypatch):
    # a scan fed sqrt(gates) equals the reference at one partition, where
    # every gate is 1, so only the gated row sees it
    gate = sse.sse_gate

    def sqrt_gates(x, params):
        gates, selected = gate(x, params)
        return np.sqrt(gates), selected

    monkeypatch.setattr(sse, "sse_gate", sqrt_gates)
    code, out = run_cli(["attn-check", "--sizes", "4,63,65"])
    assert code == 1
    failing = [p["name"] for p in json.loads(out)["properties"] if not p["pass"]]
    assert failing == ["sse_gated_vs_recurrent"]


def test_attn_check_fails_on_a_window_one_key_too_wide(monkeypatch):
    # a band that keeps one key past the window equals full attention at a
    # window of n, so only the row with a window that cuts the band sees it
    monkeypatch.setattr(cli, "swa", lambda q, k, v, window: attention.swa(q, k, v, window + 1))
    code, out = run_cli(["attn-check", "--sizes", "4,63,65"])
    assert code == 1
    failing = [p["name"] for p in json.loads(out)["properties"] if not p["pass"]]
    assert failing == ["swa_vs_masked"]


def test_quant_report_and_container_roundtrip(tmp_path, tensor_file):
    save_path = tmp_path / "weights.qblk"
    code, out = run_cli(["quant-report", "--input", tensor_file, "--block-size", "8",
                         "--save", str(save_path)])
    assert code == 0
    blob = json.loads(out)
    assert blob["shape"] == [16, 16]
    assert blob["block_shape"] == [8, 8]
    assert len(blob["chosen_clip"]) == 2 and len(blob["chosen_clip"][0]) == 2
    assert blob["mean_mse"] >= 0.0
    loaded = quant.load_block_matrix(str(save_path))
    original = quant.quantize_weight_blocks(tensorio.load_tensor(tensor_file), block_shape=(8, 8))
    assert np.array_equal(loaded.codes, original.codes)


def test_spike_report_zero_tensor(tmp_path):
    path = tmp_path / "zeros.json"
    tensorio.save_tensor_json(str(path), np.zeros((8, 8)))
    code, out = run_cli(["spike-report", "--input", str(path), "--group-size", "8"])
    assert code == 0
    blob = json.loads(out)
    assert blob["firing_rate"] == 0.0
    assert blob["add_events"] == 0
    assert blob["skipped_events"] == blob["dense_mac_equivalent"] * 7


def test_spike_report_counting_identity(tensor_file):
    code, out = run_cli(["spike-report", "--input", tensor_file, "--group-size", "8"])
    assert code == 0
    blob = json.loads(out)
    assert blob["add_events"] + blob["skipped_events"] == 7 * blob["dense_mac_equivalent"]
    assert 0.0 <= blob["firing_rate"] <= 1.0
    assert blob["matches_int8_reference"] is True


def test_spike_report_fails_on_a_product_off_the_int8_reference(monkeypatch, tensor_file):
    # a product that drops plane 6 (each group's largest code, 127, fires
    # it) with the event counts of the whole train
    spike_matmul = spike.spike_matmul

    def without_plane_6(train, w):
        planes = train.planes.copy()
        planes[6] = 0
        return spike_matmul(replace(train, planes=planes), w)[0], spike_matmul(train, w)[1]

    monkeypatch.setattr(spike, "spike_matmul", without_plane_6)
    code, out = run_cli(["spike-report", "--input", tensor_file, "--group-size", "8"])
    assert code == 1
    assert json.loads(out)["matches_int8_reference"] is False


def test_spike_report_wide_row(tmp_path):
    # wider than 2**16: only a tile wider than 133,144 codes could overflow int32
    path = tmp_path / "wide.json"
    tensorio.save_tensor_json(str(path), np.random.default_rng(10).normal(size=(1, 70000)))
    code, out = run_cli(["spike-report", "--input", str(path)])
    assert code == 0
    blob = json.loads(out)
    assert blob["shape"] == [1, 70000]
    assert blob["add_events"] + blob["skipped_events"] == 7 * blob["dense_mac_equivalent"]


def test_spike_report_weight_file(tmp_path, tensor_file, capsys):
    rng = np.random.default_rng(11)
    weight = tmp_path / "weight.json"
    tensorio.save_tensor_json(str(weight), rng.normal(size=(16, 5)))
    code, out = run_cli(["spike-report", "--input", tensor_file, "--group-size", "8", "--weight", str(weight)])
    assert code == 0
    assert json.loads(out)["dense_mac_equivalent"] == 16 * 16 * 5
    tensorio.save_tensor_json(str(weight), rng.normal(size=(12, 5)))  # 12 rows against 16 columns
    code, out = run_cli(["spike-report", "--input", tensor_file, "--group-size", "8", "--weight", str(weight)])
    err = capsys.readouterr().err
    assert code == 2 and out == ""
    assert "inner dims disagree" in err and "Traceback" not in err


def test_scaling_table_header_and_auto_ratios():
    code, out = run_cli(["scaling-table", "--lengths", "8k,64k,256k,512k", "--schedule", "auto"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,fa_cost,dssa_cost,ratio,fa_kv_bytes,dssa_kv_bytes,moba_activation_ratio"
    assert len(lines) == 5
    ratios = [float(line.split(",")[-1]) for line in lines[1:]]
    assert ratios == [0.25, 0.125, 0.1875, 0.09375]


def test_scaling_table_default_grid_is_increasing():
    code, out = run_cli(["scaling-table"])
    assert code == 0
    lines = out.strip().splitlines()[1:]
    assert len(lines) == 6
    ratios = [float(line.split(",")[3]) for line in lines]
    assert all(b > a for a, b in zip(ratios, ratios[1:]))


# scaling-table's CSV bytes, pinned: the summed costs, the header and the
# number formats must not move
SCALING_CSV = {
    ("fixed", None, ()): """\
n,fa_cost,dssa_cost,ratio,fa_kv_bytes,dssa_kv_bytes,moba_activation_ratio
1,589824,164167698,0.003592813977,589824,109641728,1
16,150994944,2768245248,0.05454536375,9437184,118489088,1
131072,1.013309916e+16,1.260349563e+15,8.039911671,7.730941133e+10,2.163841434e+10,0.375
4194304,1.037629354e+19,3.198611267e+17,32.4399956,2.473901162e+12,6.873583452e+11,0.01171875
""",
    ("auto", None, ()): """\
n,fa_cost,dssa_cost,ratio,fa_kv_bytes,dssa_kv_bytes,moba_activation_ratio
1,589824,164167824,0.00359281122,589824,109641728,1
16,150994944,2768277504,0.05454472819,9437184,118489088,1
131072,1.013309916e+16,1.260349563e+15,8.039911671,7.730941133e+10,2.163841434e+10,0.375
4194304,1.037629354e+19,3.198611267e+17,32.4399956,2.473901162e+12,6.873583452e+11,0.01171875
""",
    ("fixed", ("fa", "sse_swa"), ()): """\
n,fa_cost,dssa_cost,ratio,fa_kv_bytes,dssa_kv_bytes,moba_activation_ratio
1,32768,6324224,0.00518134715,32768,4227072,1
16,8388608,109051904,0.07692307692,524288,4718592,1
131072,5.629499534e+14,2.825744883e+14,1.992217899,4294967296,2153775104,0.375
4194304,5.764607523e+17,2.882655605e+17,1.999755889,1.374389535e+11,6.872576819e+10,0.01171875
""",
    # every cost flag set
    ("fixed", None, ("--d-model", "64", "--block-size", "1024", "--top-k", "8")): """\
n,fa_cost,dssa_cost,ratio,fa_kv_bytes,dssa_kv_bytes,moba_activation_ratio
1,9216,2565121.125,0.003592812796,9216,1713152,1
16,2359296,43254048,0.05454509136,147456,1851392,1
131072,1.583296744e+14,7.337951625e+12,21.57682177,1207959552,338100224,0.0625
4194304,1.621295866e+17,4.616849325e+15,35.1169326,3.865470566e+10,1.073997414e+10,0.001953125
""",
}


@pytest.mark.parametrize(("schedule", "kinds", "flags"), list(SCALING_CSV),
                         ids=["fixed", "auto", "two_layer_plan", "cost_flags"])
def test_scaling_table_csv_bytes_are_pinned(tmp_path, schedule, kinds, flags):
    argv = ["scaling-table", "--lengths", "1,16,128k,4M", "--schedule", schedule, *flags]
    if kinds:
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps({"kinds": list(kinds)}))
        argv += ["--plan", str(plan)]
    assert run_cli(argv) == (0, SCALING_CSV[schedule, kinds, flags])


def test_plan_show_counts_line():
    code, out = run_cli(["plan-show"])
    assert code == 0
    assert "layers: 36" in out
    assert "counts: sse_swa=26 moba=9 fa=1" in out
    assert out.count("moba") >= 10  # counts line plus nine layer rows


def test_plan_show_custom_plan(tmp_path):
    path = tmp_path / "plan.json"
    path.write_text(json.dumps({"kinds": ["fa", "moba", "sse_swa"]}))
    code, out = run_cli(["plan-show", "--plan", str(path)])
    assert code == 0
    assert "layers: 3" in out
    assert "counts: sse_swa=1 moba=1 fa=1" in out


def test_plan_json_roundtrip(tmp_path):
    # the default plan written as {"kinds": [...]} reads back as the same
    # plan: plan-show lists every layer's kind in order
    path = tmp_path / "plan.json"
    path.write_text(json.dumps(asdict(default_plan())))
    assert run_cli(["plan-show", "--plan", str(path)]) == run_cli(["plan-show"])
    with pytest.raises(ValueError):
        LayerPlan(kinds=("fa", "bogus"))


def test_profile_json_roundtrip(tmp_path):
    profile, _ = make_dip_profile(seed=1)
    path = tmp_path / "profile.json"
    path.write_text(json.dumps(asdict(profile)))
    assert tensorio.read_json(path, cli._profile) == profile


def test_layer_select_ignores_baseline(tmp_path):
    # selection compares layers with each other; a baseline key changes nothing
    scores = [1.0, 2.0, 3.0, -20.0]
    outputs = []
    for name, doc in [("plain", {"scores": scores}),
                      ("high", {"baseline": 1e9, "scores": scores}),
                      ("low", {"baseline": -1e9, "scores": scores})]:
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        code, out = run_cli(["layer-select", "--profile", str(path), "--threshold", "5.0"])
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1] == outputs[2]
    assert json.loads(outputs[0])["selected"] == [3]


def test_layer_select_dip_fixture(tmp_path):
    profile, planted = make_dip_profile(seed=42)
    path = tmp_path / "profile.json"
    path.write_text(json.dumps(asdict(profile)))
    code, out = run_cli(["layer-select", "--profile", str(path), "--threshold", "5.0"])
    assert code == 0
    blob = json.loads(out)
    assert blob["selected"] == planted
    assert blob["num_layers"] == 36


def test_loss_check_demo_and_fixtures(tmp_path):
    code, out = run_cli(["loss-check", "--seed", "1"])
    assert code == 0
    blob = json.loads(out)
    assert blob["mode"] == "llm"
    assert np.isfinite(blob["combined"])

    llm = tmp_path / "llm.json"
    llm.write_text(json.dumps({"mode": "llm", "ce": 1.0, "aux": 1.0, "kd": 1.0, "mse": 1.0}))
    code, out = run_cli(["loss-check", "--fixture", str(llm)])
    assert code == 0
    assert json.loads(out)["combined"] == pytest.approx(1.201, abs=1e-12)

    vlm = tmp_path / "vlm.json"
    vlm.write_text(json.dumps({"mode": "vlm", "kd": 2.0, "mse": 3.0}))
    code, out = run_cli(["loss-check", "--fixture", str(vlm)])
    assert code == 0
    assert json.loads(out)["combined"] == 5.0


def test_loss_check_fixture_at_subnormal_mse(tmp_path):
    # kd / mse overflows float64 at mse = 1e-310; the ratio term is beta * |kd|
    path = tmp_path / "tiny_mse.json"
    path.write_text(json.dumps({"mode": "llm", "ce": 1, "aux": 0, "kd": 1, "mse": 1e-310}))
    code, out = run_cli(["loss-check", "--fixture", str(path)])
    assert code == 0
    assert json.loads(out)["combined"] == 1.0 + 0.1 + 0.1


@pytest.mark.parametrize(
    "mode, parts",
    [("llm", {"ce": 1.7e308, "aux": 0, "kd": 1.7e308, "mse": 1}), ("vlm", {"kd": 1.7e308, "mse": 1.7e308})],
)
def test_loss_check_fixture_past_float64_exits_two_naming_objective_and_file(tmp_path, capsys, mode, parts):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"mode": mode, **parts}))
    code, out = run_cli(["loss-check", "--fixture", str(path)])
    assert (code, out) == (2, "")
    assert capsys.readouterr().err == (
        f"dssalab: error: fixture {path}: combined_loss_{mode}: the weighted sum of finite parts is inf, "
        "past float64\n"
    )


def test_breakdown_json_shape(tmp_path):
    parts = {"ce": 1.0, "aux": 1.0, "kd": 1.0, "mse": 1.0}
    path = tmp_path / "llm.json"
    path.write_text(json.dumps(parts))
    code, out = run_cli(["loss-check", "--fixture", str(path)])
    assert code == 0
    blob = json.loads(out)
    assert set(blob) == {"schema_version", "command", "mode",
                         "ce", "aux", "kd", "mse", "c", "alpha", "beta", "combined"}
    assert blob["combined"] == combined_loss_llm(**parts).combined


def test_moba_trace_structure():
    code, out = run_cli(["moba-trace", "--seed", "2", "--n", "8", "--d", "3",
                         "--block-size", "2", "--top-k", "2"])
    assert code == 0
    blob = json.loads(out)
    assert blob["n"] == 8
    selections = blob["selections"]
    assert len(selections) == 8
    assert selections[0]["blocks"] == [0]  # first query can only see block 0
    for entry in selections:
        t = entry["query_index"]
        assert entry["blocks"] == sorted(entry["blocks"])
        assert all(0 <= b <= t // 2 for b in entry["blocks"])
        assert t // 2 in entry["blocks"]  # current block always kept


def test_moba_trace_zero_rows(tmp_path):
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"shape": [0, 4], "data": []}))
    code, out = run_cli(["moba-trace", "--queries", str(path), "--keys", str(path)])
    assert code == 0
    blob = json.loads(out)
    assert blob["n"] == 0
    assert blob["selections"] == []


def test_out_flag_writes_file_with_same_bytes(tmp_path):
    code, stdout_text = run_cli(["plan-show"])
    assert code == 0
    out_path = tmp_path / "plan.txt"
    code, piped = run_cli(["plan-show", "--out", str(out_path)])
    assert code == 0
    assert piped == ""
    assert out_path.read_text() == stdout_text


def test_every_subcommand_is_deterministic(tmp_path, tensor_file):
    profile, _ = make_dip_profile(seed=42)
    profile_path = tmp_path / "profile.json"
    profile_path.write_text(json.dumps(asdict(profile)))
    commands = [
        ["attn-check", "--sizes", "1,4", "--dims", "2", "--trials", "2", "--seed", "3"],
        ["quant-report", "--input", tensor_file, "--block-size", "8"],
        ["spike-report", "--input", tensor_file, "--group-size", "8"],
        ["scaling-table", "--lengths", "128k,256k"],
        ["plan-show"],
        ["layer-select", "--profile", str(profile_path), "--threshold", "5.0"],
        ["loss-check", "--seed", "7"],
        ["moba-trace", "--seed", "2", "--n", "8", "--d", "3", "--block-size", "2", "--top-k", "2"],
    ]
    for argv in commands:
        code_a, out_a = run_cli(argv)
        code_b, out_b = run_cli(argv)
        assert code_a == code_b == 0, argv
        assert out_a.encode() == out_b.encode(), argv


def exit_code(argv: list[str]) -> int:
    """main's return value, or the code argparse exits with on a usage error."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


def test_error_paths_exit_two(tmp_path, capsys, tensor_file):
    bad_fixture = tmp_path / "bad.json"
    bad_fixture.write_text(json.dumps({"mode": "audio", "kd": 1.0, "mse": 1.0}))
    not_json = tmp_path / "broken.json"
    not_json.write_text("{nope")
    short_header = tmp_path / "short_header.bin"
    short_header.write_bytes(tensorio.MAGIC + b"\x02\x00")  # 10 bytes, rank cut off
    short_dims = tmp_path / "short_dims.bin"
    short_dims.write_bytes(tensorio.MAGIC + struct.pack("<2I", 2, 4))  # second dim missing
    short_payload = tmp_path / "short_payload.bin"
    tensorio.save_tensor_bin(short_payload, np.ones((4, 4)))
    short_payload.write_bytes(short_payload.read_bytes()[:-4])
    trailing_byte = tmp_path / "trailing_byte.bin"
    tensorio.save_tensor_bin(trailing_byte, np.ones((4, 4)))
    trailing_byte.write_bytes(trailing_byte.read_bytes() + b"\x00")
    no_columns = tmp_path / "no_columns.json"
    no_columns.write_text(json.dumps({"shape": [4, 0], "data": []}))
    profile_path = tmp_path / "profile.json"
    profile_path.write_text(json.dumps(asdict(make_dip_profile(seed=42)[0])))

    def write(name: str, text: str) -> str:
        path = tmp_path / f"{name}.json"
        path.write_text(text)
        return str(path)

    plan_scalar = write("plan_scalar", '{"kinds": "fa"}')
    plan_list = write("plan_list", '["fa", "moba"]')
    deep = "[" * 200_000 + "]" * 200_000  # deeper than the JSON parser recurses
    not_utf8 = tmp_path / "not_utf8.json"
    not_utf8.write_bytes(b'{"shape": [1], "data": [1.0]}\xff\xfe')
    q4x4, k3x2, k3x4 = (tmp_path / f"{name}.json" for name in ("q4x4", "k3x2", "k3x4"))
    tensorio.save_tensor_json(str(q4x4), np.ones((4, 4)))
    tensorio.save_tensor_json(str(k3x2), np.ones((3, 2)))
    tensorio.save_tensor_json(str(k3x4), np.ones((3, 4)))
    q_huge, k_huge = overflowing_moba_files(tmp_path)
    w8x2, w16 = tmp_path / "w8x2.json", tmp_path / "w16.json"
    tensorio.save_tensor_json(str(w8x2), np.ones((8, 2)))
    tensorio.save_tensor_json(str(w16), np.ones(16))
    cases = [
        ["quant-report", "--input", str(tmp_path / "missing.json")],
        ["loss-check", "--fixture", str(bad_fixture)],
        ["scaling-table", "--lengths", "12x,64k"],
        ["scaling-table", "--lengths", ","],
        ["scaling-table", "--lengths="],
        ["scaling-table", "--lengths", "0"],
        ["scaling-table", "--lengths", "64k,0k"],
        ["layer-select", "--profile", str(not_json), "--threshold", "1.0"],
        ["quant-report", "--input", str(short_header)],
        ["quant-report", "--input", str(short_dims)],
        ["spike-report", "--input", str(short_payload)],
        ["quant-report", "--input", tensor_file, "--block-size", "0"],
        ["spike-report", "--input", tensor_file, "--group-size", "0"],
        ["spike-report", "--input", tensor_file, "--group-size", "-8"],
        ["attn-check", "--trials", "0"],
        ["attn-check", "--trials", "two"],
        ["attn-check", "--sizes", "0"],
        ["attn-check", "--sizes", "4,0,8"],
        ["attn-check", "--sizes", ","],
        ["attn-check", "--dims", "0"],
        ["scaling-table", "--d-model", "0"],
        ["scaling-table", "--block-size", "0"],
        ["scaling-table", "--top-k", "0"],
        ["moba-trace", "--n", "0"],
        ["moba-trace", "--d", "0"],
        ["moba-trace", "--block-size", "0"],
        ["moba-trace", "--top-k", "0"],
        ["attn-check", "--tolerance", "nan"],
        ["attn-check", "--tolerance", "-1e-10"],
        ["layer-select", "--profile", str(profile_path), "--threshold", "nan"],
        ["layer-select", "--profile", str(profile_path), "--threshold", "inf"],
    ]
    # malformed JSON documents, a lone query or key file, and a fault that no
    # size can carry: the error line must also name the file or option argv[2]
    files = [
        ["attn-check", "--inject-fault", "--sizes", "1"],
        ["moba-trace", "--queries", str(q4x4)],
        ["moba-trace", "--keys", str(k3x4)],
        ["loss-check", "--fixture",
         write("loss_null", '{"mode": "llm", "ce": null, "aux": 1.0, "kd": 1.0, "mse": 1.0}')],
        ["loss-check", "--fixture", write("loss_list", "[1.0, 2.0]")],
        ["loss-check", "--fixture", write("loss_missing", '{"mode": "vlm", "kd": 1.0}')],
        ["loss-check", "--fixture",
         write("loss_huge_int", '{"ce": 1' + "0" * 400 + ', "aux": 1.0, "kd": 1.0, "mse": 1.0}')],
        ["layer-select", "--profile", write("profile_scalar", '{"baseline": 60.0, "scores": "123"}'),
         "--threshold", "1.0"],
        ["layer-select", "--profile", write("profile_list", '[{"baseline": 60.0, "scores": [1.0]}]'),
         "--threshold", "1.0"],
        ["layer-select", "--profile", write("profile_nan", '{"baseline": 60.0, "scores": [1.0, NaN]}'),
         "--threshold", "1.0"],
        ["plan-show", "--plan", plan_scalar],
        ["plan-show", "--plan", plan_list],
        ["scaling-table", "--plan", plan_scalar],
        ["scaling-table", "--plan", plan_list],
        ["quant-report", "--input", write("shape_text", '{"shape": "ab", "data": [1.0, 2.0]}')],
        ["quant-report", "--input", write("shape_fraction", '{"shape": [2, 2.5], "data": [1.0]}')],
        ["spike-report", "--input", write("tensor_list", "[1, 2]")],
        ["spike-report", "--input", str(no_columns)],
        ["plan-show", "--plan", write("plan_deep", '{"kinds": ' + deep + "}")],
        ["spike-report", "--input", write("tensor_deep", '{"shape": [1], "data": ' + deep + "}")],
        ["quant-report", "--input", str(not_utf8)],
        # a number given as a string or a boolean; "nan" as a string; no layers
        ["layer-select", "--profile", write("profile_nan_text", '{"scores": ["nan", 1.0, 2.0, 3.0]}'),
         "--threshold", "1.0"],
        ["layer-select", "--profile", write("profile_inf_text", '{"scores": ["-inf", 1.0, 2.0, 3.0]}'),
         "--threshold", "1.0"],
        ["loss-check", "--fixture",
         write("loss_text_bool", '{"ce": "2", "aux": true, "kd": 0.5, "mse": 0.1}')],
        ["spike-report", "--input", write("tensor_bool_text", '{"shape": [1, 2], "data": [true, "1.5"]}')],
        ["plan-show", "--plan", write("plan_empty", '{"kinds": []}')],
        ["scaling-table", "--plan", write("plan_empty", '{"kinds": []}')],
        # a length or a width whose cost passes float64
        ["scaling-table", "--lengths", str(10**152)],
        ["scaling-table", "--d-model", str(10**302), "--lengths", "4096"],
        # a block size or top-k that --schedule auto would ignore
        ["scaling-table", "--schedule=auto", "--block-size", "64"],
        ["scaling-table", "--schedule=auto", "--top-k", "2"],
        ["spike-report", "--input", str(trailing_byte)],
        # finite, but the clip search's squared error overflows float64
        ["quant-report", "--input",
         write("tensor_huge", '{"shape": [2, 2], "data": [1e300, -1e300, 3e299, 1]}'), "--block-size", "2"],
        # finite, but the spike product overflows float64
        ["spike-report", "--input",
         write("tensor_overflow", '{"shape": [1, 2], "data": [1e308, 1e308]}'), "--group-size", "2"],
        # query and key files that disagree, or whose finite scores overflow float64
        ["moba-trace", "--queries", str(q4x4), "--keys", str(k3x2)],
        ["moba-trace", "--queries", str(q4x4), "--keys", str(k3x4), "--block-size", "1"],
        ["moba-trace", "--queries", q_huge, "--keys", k_huge, "--block-size", "1", "--top-k", "3"],
        # no elements to quantize
        ["quant-report", "--input", str(no_columns)],
        # a weight whose rows are not the input's columns, or one of one dimension
        ["spike-report", "--input", tensor_file, "--weight", str(w8x2), "--group-size", "8"],
        ["spike-report", "--input", tensor_file, "--weight", str(w16), "--group-size", "8"],
        # a tensor of one dimension
        ["quant-report", "--input", str(w16)],
        ["spike-report", "--input", str(w16)],
        # a clip outside (0, 1] is the fault of --grid (argv[2]), not of the tensor file
        ["quant-report", f"--input={tensor_file}", "--grid", "2"],
    ]
    for argv in cases + files:
        assert exit_code(argv) == 2, argv
        err = capsys.readouterr().err
        assert "error" in err and "Traceback" not in err, argv
        assert argv not in files or argv[2] in err, argv


def overflowing_moba_files(tmp_path) -> tuple[str, str]:
    """Finite query and key files whose q.pooled scores overflow float64:
    1e200 against the pooled block -1e200 at --block-size 1."""
    q, k = tmp_path / "q_huge.json", tmp_path / "k_huge.json"
    tensorio.save_tensor_json(q, np.full((3, 1), 1e200))
    tensorio.save_tensor_json(k, np.array([[1.0], [-1e200], [1.0]]))
    return str(q), str(k)


def test_moba_trace_overflow_is_one_error_line_naming_both_files(tmp_path, capsys):
    q, k = overflowing_moba_files(tmp_path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no RuntimeWarning beside the error
        code = exit_code(["moba-trace", "--queries", q, "--keys", k, "--block-size", "1", "--top-k", "3"])
    assert code == 2
    assert capsys.readouterr().err == (
        f"dssalab: error: query file {q} and key file {k}: non-finite values in moba_select\n"
    )


def test_spike_report_overflow_is_one_error_line_naming_both_files(tmp_path, capsys):
    # no RuntimeWarning beside the error: warnings raise here
    x, w = tmp_path / "huge.json", tmp_path / "ones.json"
    tensorio.save_tensor_json(x, np.full((2, 4), 1e308))
    tensorio.save_tensor_json(w, np.ones((4, 1)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = exit_code(["spike-report", "--input", str(x), "--weight", str(w), "--group-size", "4"])
    assert code == 2
    assert capsys.readouterr().err == (
        f"dssalab: error: tensor file {x} through weight file {w}: non-finite values in int8_tiles\n"
    )


def test_quant_report_refuses_to_save_a_scale_float32_cannot_hold(tmp_path, capsys):
    # finite in float64, but the block's scale casts to inf in float32
    path = tmp_path / "huge.json"
    tensorio.save_tensor_json(path, np.array([[1e100, -1.0], [3.0, 1.0]]))
    save = tmp_path / "huge.qblk"
    assert exit_code(["quant-report", "--input", str(path), "--block-size", "2", "--save", str(save)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"dssalab: error: {save}: a scale or clip is not finite")
    assert not save.exists()


# read_json builder -> (the arguments before and after the file, a document
# it accepts). Every key of each document is needed
READ_JSON_BUILDERS = {
    "tensor": (["quant-report", "--input"], [], {"shape": [2, 2], "data": [1.0, -2.0, 0.5, 3.0]}),
    "plan": (["plan-show", "--plan"], [], {"kinds": ["sse_swa", "moba", "fa"]}),
    "profile": (["layer-select", "--profile"], ["--threshold", "1.0"], {"scores": [60.0, 50.0, 61.0]}),
    "loss fixture": (["loss-check", "--fixture"], [], {"mode": "vlm", "kd": 0.5, "mse": 0.1}),
}

# a JSON value that no key or list element of those documents takes: not a
# number, a list, a layer kind or a loss mode
WRONG_VALUE = st.one_of(
    st.text(max_size=4).filter(lambda s: s not in LAYER_KINDS and s not in cli.LOSS_MODES),
    st.booleans(),
    st.none(),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=2),
    st.sampled_from([math.nan, math.inf, -math.inf]),
)


@st.composite
def malformed_json(draw, doc: dict) -> str:
    """The text of doc broken in one drawn way: cut short, under a top level
    that is not an object, a key dropped, a key's value or one list element
    replaced by a wrong value, or a list emptied."""
    text = json.dumps(doc)
    how = draw(st.sampled_from(["cut", "top level", "drop", "retype", "element", "empty"]))
    if how == "cut":
        return text[: draw(st.integers(0, len(text) - 1))]
    if how == "top level":
        return json.dumps(draw(st.one_of(st.just([doc]), st.text(max_size=4), st.booleans(), st.none(),
                                         st.integers(), st.floats())))
    broken = dict(doc)
    lists = sorted(key for key, value in doc.items() if isinstance(value, list))
    if how in ("element", "empty") and lists:
        key = draw(st.sampled_from(lists))
        broken[key] = [] if how == "empty" else list(doc[key])
        if how == "element":
            broken[key][draw(st.integers(0, len(doc[key]) - 1))] = draw(WRONG_VALUE)
    elif how == "drop":
        del broken[draw(st.sampled_from(sorted(doc)))]
    else:
        broken[draw(st.sampled_from(sorted(doc)))] = draw(WRONG_VALUE)
    return json.dumps(broken)


def test_read_json_builders_accept_their_documents(tmp_path):
    for name, (before, after, doc) in READ_JSON_BUILDERS.items():
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        assert run_cli([*before, str(path), *after])[0] == 0, name


@pytest.mark.parametrize("builder", READ_JSON_BUILDERS)
@given(data=st.data())
def test_malformed_json_exits_two_naming_the_file(builder, data, tmp_path_factory):
    before, after, doc = READ_JSON_BUILDERS[builder]
    path = tmp_path_factory.getbasetemp() / "malformed.json"
    path.write_text(data.draw(malformed_json(doc)))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main([*before, str(path), *after])
    assert code == 2
    assert err.getvalue().startswith(f"dssalab: error: malformed JSON file {path}: ")
    assert "Traceback" not in err.getvalue()


def test_argparse_rejects_unknown_subcommand():
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


def test_argparse_requires_mandatory_flags():
    with pytest.raises(SystemExit):
        main(["layer-select"])  # missing --profile/--threshold
    with pytest.raises(SystemExit):
        main(["quant-report"])  # missing --input
