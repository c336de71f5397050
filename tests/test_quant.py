from __future__ import annotations

import struct

import numpy as np
import pytest

from dssalab.fp8 import encode_array, fp8_quantize
from dssalab.quant import (
    BLOCK_MAGIC,
    DEFAULT_CLIP_GRID,
    GROUP_MAGIC,
    QuantizedBlockMatrix,
    QuantizedGroupActivation,
    int8_matmul_reference,
    load_block_matrix,
    load_group_activation,
    quantize_activation_groups,
    quantize_weight_blocks,
    round_half_away,
    save_block_matrix,
    save_group_activation,
)
from dssalab.tensor_ops import NumericsError, ShapeError


def clip_search_oracle(block, grid):
    # brute force over the same grid, scalar bookkeeping
    amax = np.max(np.abs(block))
    best_c, best_mse = None, None
    for c in sorted(grid, reverse=True):
        scale = c * amax / 127.0
        codes = np.clip(round_half_away(block / scale), -127, 127)
        mse = float(np.mean((codes * scale - block) ** 2))
        if best_mse is None or mse < best_mse:
            best_c, best_mse = c, mse
    return best_c, best_mse


def encode_groups_loop(x, group_size, qmax, encode, dtype):
    # the per-group loop that encode_groups replaced, kept as its oracle
    n, d = x.shape
    codes = np.zeros((n, d), dtype=dtype)
    scales = np.ones((n, (d + group_size - 1) // group_size))
    for g, c0 in enumerate(range(0, d, group_size)):
        group = x[:, c0 : c0 + group_size]
        amax = np.max(np.abs(group), axis=1)
        scale = np.where(amax == 0.0, 1.0, amax / qmax)
        codes[:, c0 : c0 + group_size] = encode(group / scale[:, None])
        scales[:, g] = scale
    return codes, scales


def group_dequantize_loop(qa):
    # the per-group loop of QuantizedGroupActivation.dequantize, kept as its oracle
    out = np.empty(qa.codes.shape)
    for g in range(qa.scales.shape[1]):
        cols = slice(g * qa.group_size, (g + 1) * qa.group_size)
        out[:, cols] = qa.decode(qa.codes[:, cols]) * qa.scales[:, g : g + 1]
    return out


def block_dequantize_loop(qw):
    # the per-block loop of QuantizedBlockMatrix.dequantize, kept as its oracle
    rs, cs = qw.block_shape
    out = np.empty(qw.codes.shape)
    for br in range(qw.scales.shape[0]):
        for bc in range(qw.scales.shape[1]):
            rows, cols = slice(br * rs, (br + 1) * rs), slice(bc * cs, (bc + 1) * cs)
            out[rows, cols] = qw.codes[rows, cols].astype(np.float64) * qw.scales[br, bc]
    return out


def int8_encode(y):
    return np.clip(round_half_away(y), -127, 127).astype(np.int8)


def test_round_half_away_from_zero():
    x = np.array([0.5, -0.5, 1.5, -1.5, 2.5, -2.5, 0.49, -0.49, 2.0])
    want = np.array([1.0, -1.0, 2.0, -2.0, 3.0, -3.0, 0.0, 0.0, 2.0])
    assert np.array_equal(round_half_away(x), want)


def test_default_clip_grid():
    assert DEFAULT_CLIP_GRID[0] == 1.0
    assert DEFAULT_CLIP_GRID[-1] == 0.5
    assert len(DEFAULT_CLIP_GRID) == 11


def test_representable_block_roundtrips_exactly():
    rng = np.random.default_rng(30)
    ints = rng.integers(-127, 128, size=(16, 16)).astype(np.float64)
    ints[0, 0] = 127.0  # pin the max so scale = s exactly
    s = 0.03125  # power of two keeps the division exact
    qw = quantize_weight_blocks(ints * s, block_shape=(16, 16))
    assert qw.clips[0, 0] == 1.0
    assert qw.mse[0, 0] == 0.0
    assert np.array_equal(qw.dequantize(), ints * s)


def test_zero_block_is_safe():
    qw = quantize_weight_blocks(np.zeros((8, 8)), block_shape=(4, 4))
    assert np.array_equal(qw.codes, np.zeros((8, 8), dtype=np.int8))
    assert np.array_equal(qw.scales, np.ones((2, 2)))
    assert np.all(np.isfinite(qw.dequantize()))


def test_clip_search_matches_bruteforce_oracle():
    rng = np.random.default_rng(31)
    grid = (1.0, 0.9, 0.8, 0.7, 0.6, 0.5)
    for _ in range(25):
        block = rng.standard_normal((12, 12)) * rng.uniform(0.1, 5.0)
        qw = quantize_weight_blocks(block, grid=grid, block_shape=(12, 12))
        want_c, want_mse = clip_search_oracle(block, grid)
        assert qw.clips[0, 0] == want_c
        assert abs(qw.mse[0, 0] - want_mse) < 1e-18


def test_clip_search_never_worse_than_no_clip():
    rng = np.random.default_rng(32)
    for _ in range(50):
        block = rng.standard_normal((10, 10)) * rng.uniform(0.05, 3.0)
        qw = quantize_weight_blocks(block, block_shape=(10, 10))
        scale1 = np.max(np.abs(block)) / 127.0
        codes1 = np.clip(round_half_away(block / scale1), -127, 127)
        mse1 = float(np.mean((codes1 * scale1 - block) ** 2))
        assert qw.mse[0, 0] <= mse1 + 1e-18


def test_clip_tie_prefers_larger_coefficient():
    # constant block: every clip reproduces it exactly, so all MSEs tie
    block = np.full((4, 4), 2.0)
    qw = quantize_weight_blocks(block, grid=(0.5, 1.0, 0.75), block_shape=(4, 4))
    assert qw.clips[0, 0] == 1.0


def test_clip_search_overflow_raises_and_large_blocks_still_quantize():
    # every clip coefficient's squared error overflows float64: no warning,
    # one NumericsError that names the block and its magnitude
    huge = np.array([[1e300, -1e300], [3e299, 1.0]])
    with pytest.raises(NumericsError, match=r"block \(0, 0\).*1e\+300"):
        quantize_weight_blocks(huge, block_shape=(2, 2))
    # a block whose errors stay finite quantizes as the oracle does
    for scale in (1e150, 1e-300):
        block = np.array([[1.0, -1.0], [0.3, 1e-5]]) * scale
        qw = quantize_weight_blocks(block, block_shape=(2, 2))
        assert (qw.clips[0, 0], qw.mse[0, 0]) == clip_search_oracle(block, DEFAULT_CLIP_GRID)


def test_blocks_are_independent():
    rng = np.random.default_rng(33)
    w = rng.standard_normal((8, 8))
    whole = quantize_weight_blocks(w, block_shape=(4, 4))
    for br in range(2):
        for bc in range(2):
            rows, cols = slice(4 * br, 4 * br + 4), slice(4 * bc, 4 * bc + 4)
            solo = quantize_weight_blocks(w[rows, cols], block_shape=(4, 4))
            assert np.array_equal(whole.codes[rows, cols], solo.codes)
            assert whole.scales[br, bc] == solo.scales[0, 0]


def test_activation_roundtrip_error_within_half_scale():
    rng = np.random.default_rng(34)
    x = rng.standard_normal((6, 32)) * rng.uniform(0.1, 10.0)
    qa = quantize_activation_groups(x, group_size=8)
    back = qa.dequantize()
    for g in range(qa.scales.shape[1]):
        cols = slice(8 * g, 8 * g + 8)
        bound = qa.scales[:, g : g + 1] / 2.0 + 1e-15
        assert np.all(np.abs(back[:, cols] - x[:, cols]) <= bound)


def test_activation_constant_group_saturates_to_threshold():
    x = np.full((2, 8), 3.7)
    qa = quantize_activation_groups(x, group_size=8)
    assert np.all(qa.codes == 127)
    assert np.allclose(qa.scales, 3.7 / 127.0)


def test_activation_representable_pattern_roundtrips():
    pattern = np.arange(-127, 128, dtype=np.float64)
    s = 0.25
    qa = quantize_activation_groups((pattern * s)[None, :], group_size=len(pattern))
    assert np.array_equal(qa.codes[0].astype(np.float64), pattern)
    assert np.array_equal(qa.dequantize()[0], pattern * s)


def test_zero_activation_group_scale_is_one():
    qa = quantize_activation_groups(np.zeros((3, 8)), group_size=4)
    assert np.array_equal(qa.scales, np.ones((3, 2)))
    assert np.all(qa.codes == 0)


def test_group_and_block_layout_match_loop_oracles():
    # partial last groups and blocks, an all-zero group and an all-zero block
    rng = np.random.default_rng(46)
    for n, d, m, g, bc in [(1, 1, 1, 1, 1), (3, 7, 5, 4, 3), (5, 20, 9, 8, 4),
                           (4, 33, 17, 16, 16), (2, 16, 16, 16, 16), (6, 5, 3, 9, 2)]:
        x = rng.standard_normal((n, d)) * rng.uniform(0.01, 500.0)
        x[0, :g] = 0.0
        for quantize, qmax, encode, dtype in [
            (quantize_activation_groups, 127.0, int8_encode, np.int8),
            (fp8_quantize, 448.0, encode_array, np.uint8),
        ]:
            qa = quantize(x, group_size=g)
            codes, scales = encode_groups_loop(x, g, qmax, encode, dtype)
            assert qa.codes.dtype == dtype
            assert np.array_equal(qa.codes, codes)
            assert np.array_equal(qa.scales, scales)
            assert np.array_equal(qa.dequantize(), group_dequantize_loop(qa))
        w = rng.standard_normal((d, m))
        w[:g, :bc] = 0.0
        qw = quantize_weight_blocks(w, block_shape=(g, bc))
        assert np.array_equal(qw.dequantize(), block_dequantize_loop(qw))


def test_int8_reference_matches_triple_loop():
    rng = np.random.default_rng(35)
    x = rng.standard_normal((3, 8))
    w = rng.standard_normal((8, 5))
    qa = quantize_activation_groups(x, group_size=4)
    qw = quantize_weight_blocks(w, block_shape=(4, 4))
    got = int8_matmul_reference(qa, qw)
    want = np.zeros((3, 5))
    for i in range(3):
        for j in range(5):
            for g in range(2):  # tile accumulation order fixed: ascending groups
                acc = 0
                for kk in range(4 * g, 4 * g + 4):
                    acc += int(qa.codes[i, kk]) * int(qw.codes[kk, j])
                want[i, j] += float(acc) * qa.scales[i, g] * qw.scales[g, j // qw.block_shape[1]]
    assert np.array_equal(got, want)


def test_int8_reference_approximates_float_product():
    rng = np.random.default_rng(36)
    x = rng.standard_normal((4, 16))
    w = rng.standard_normal((16, 6))
    qa = quantize_activation_groups(x, group_size=8)
    qw = quantize_weight_blocks(w, block_shape=(8, 8))
    got = int8_matmul_reference(qa, qw)
    rel = np.max(np.abs(got - x @ w)) / np.max(np.abs(x @ w))
    assert rel < 0.05


def test_int8_reference_validates_tiling():
    qa = quantize_activation_groups(np.ones((2, 8)), group_size=4)
    qw = quantize_weight_blocks(np.ones((8, 4)), block_shape=(8, 4))
    with pytest.raises(ShapeError):
        int8_matmul_reference(qa, qw)


def test_grid_validation():
    with pytest.raises(ValueError):
        quantize_weight_blocks(np.ones((4, 4)), grid=())
    with pytest.raises(ValueError):
        quantize_weight_blocks(np.ones((4, 4)), grid=(1.2,))
    with pytest.raises(ValueError):
        quantize_weight_blocks(np.ones((4, 4)), grid=(0.0,))
    with pytest.raises(ValueError):
        quantize_weight_blocks(np.ones((4, 4)), block_shape=(0, 4))
    with pytest.raises(ValueError):
        quantize_weight_blocks(np.ones((4, 0)))
    with pytest.raises(ValueError):
        quantize_activation_groups(np.ones((2, 4)), group_size=0)


def test_block_container_roundtrip(tmp_path):
    rng = np.random.default_rng(37)
    qw = quantize_weight_blocks(rng.standard_normal((20, 12)), block_shape=(8, 8))
    path = tmp_path / "w.qblk"
    save_block_matrix(path, qw)
    back = load_block_matrix(path)
    assert isinstance(back, QuantizedBlockMatrix)
    assert np.array_equal(back.codes, qw.codes)
    assert back.block_shape == qw.block_shape
    assert np.allclose(back.scales, qw.scales, atol=1e-7)  # f32 storage
    assert np.allclose(back.clips, qw.clips, atol=1e-7)


def test_group_container_roundtrip(tmp_path):
    rng = np.random.default_rng(38)
    qa = quantize_activation_groups(rng.standard_normal((5, 20)), group_size=8)
    path = tmp_path / "a.qgrp"
    save_group_activation(path, qa)
    back = load_group_activation(path)
    assert np.array_equal(back.codes, qa.codes)
    assert back.group_size == 8
    assert np.allclose(back.scales, qa.scales, atol=1e-7)


def test_container_rejects_wrong_magic(tmp_path):
    path = tmp_path / "bad"
    path.write_bytes(b"XXXXXXXX" + b"\x00" * 32)
    with pytest.raises(ValueError):
        load_block_matrix(path)
    with pytest.raises(ValueError):
        load_group_activation(path)
    # truncated containers: cut inside the header, the scales and the codes
    rng = np.random.default_rng(39)
    good = tmp_path / "good"
    save_block_matrix(good, quantize_weight_blocks(rng.standard_normal((8, 8)), block_shape=(4, 4)))
    raw = good.read_bytes()  # 8 magic + 16 header + 16 scales + 16 clips + 64 codes
    for cut in (12, 30, len(raw) - 1):
        path.write_bytes(raw[:cut])
        with pytest.raises(ValueError, match="bad"):
            load_block_matrix(path)
    path.write_bytes(raw[:-1] + b"\x80")  # int8 code -128: outside [-127, 127]
    with pytest.raises(ValueError, match="-128"):
        load_block_matrix(path)
    save_group_activation(good, quantize_activation_groups(rng.standard_normal((2, 8)), group_size=4))
    raw = good.read_bytes()  # 8 magic + 12 header + 16 scales + 16 codes
    for cut in (12, 30, len(raw) - 1):
        path.write_bytes(raw[:cut])
        with pytest.raises(ValueError, match="bad"):
            load_group_activation(path)
    path.write_bytes(raw[:-1] + b"\x80")
    with pytest.raises(ValueError, match="-128"):
        load_group_activation(path)
    # a header that claims more than the file holds is rejected before any
    # read is sized from it; so are bytes appended after the codes
    block_raw = good.with_name("good_block")
    save_block_matrix(block_raw, quantize_weight_blocks(rng.standard_normal((8, 8)), block_shape=(4, 4)))
    for magic, load, claim, rest in (
        (BLOCK_MAGIC, load_block_matrix, (65536, 65536, 1, 1), 68),
        (BLOCK_MAGIC, load_block_matrix, (2**32 - 1, 2**32 - 1, 1, 1), 68),
        (GROUP_MAGIC, load_group_activation, (65536, 65536, 1), 72),
        (GROUP_MAGIC, load_group_activation, (2**32 - 1, 2**32 - 1, 1), 72),
    ):
        path.write_bytes(magic + struct.pack(f"<{len(claim)}I", *claim) + b"\x00" * rest)
        with pytest.raises(ValueError, match="bad"):
            load(path)
    for source, load in ((block_raw, load_block_matrix), (good, load_group_activation)):
        path.write_bytes(source.read_bytes() + b"\x00")
        with pytest.raises(ValueError, match="bad: 1 bytes follow"):
            load(path)
    # a well-formed container read as the other format; a header whose block
    # shape or group size is 0
    for source, load in ((block_raw, load_group_activation), (good, load_block_matrix)):
        path.write_bytes(source.read_bytes())
        with pytest.raises(ValueError, match="bad: does not start with the magic"):
            load(path)
    for blob, load in ((BLOCK_MAGIC + struct.pack("<4I", 1, 1, 0, 1), load_block_matrix),
                       (BLOCK_MAGIC + struct.pack("<4I", 1, 1, 1, 0), load_block_matrix),
                       (GROUP_MAGIC + struct.pack("<3I", 1, 1, 0), load_group_activation)):
        path.write_bytes(blob + b"\x00" * 9)
        with pytest.raises(ValueError, match="bad: .* is not positive"):
            load(path)
    # a NaN or an infinity among the scales or the clips: it would dequantize
    # to non-finite values. Block scales start at byte 24, clips at 40; group
    # scales at byte 20
    for source, load, offset in ((block_raw, load_block_matrix, 24), (block_raw, load_block_matrix, 40),
                                 (good, load_group_activation, 20), (good, load_group_activation, 32)):
        for bad in (np.nan, np.inf, -np.inf):
            raw = bytearray(source.read_bytes())
            raw[offset : offset + 4] = struct.pack("<f", bad)
            path.write_bytes(bytes(raw))
            with pytest.raises(ValueError, match="bad: a scale or clip is not finite"):
                load(path)


def test_container_writers_refuse_scales_not_finite_in_float32(tmp_path):
    # 1e100 is finite in float64 but casts to inf in float32; nothing is written
    path = tmp_path / "refused"
    codes = np.ones((2, 2), dtype=np.int8)
    for scale in (1e100, np.nan):
        qw = QuantizedBlockMatrix(codes=codes, scales=np.array([[scale]]), clips=np.ones((1, 1)),
                                  mse=np.zeros((1, 1)), block_shape=(2, 2))
        qa = QuantizedGroupActivation(codes=codes, scales=np.array([[1.0], [scale]]), group_size=2)
        for save, q in ((save_block_matrix, qw), (save_group_activation, qa)):
            with pytest.raises(ValueError, match="refused: a scale or clip is not finite in float32"):
                save(path, q)
            assert not path.exists()
    qw.scales[0, 0], qw.clips[0, 0] = 1.0, -np.inf
    with pytest.raises(ValueError, match="refused"):
        save_block_matrix(path, qw)


def test_container_formats_are_pinned(tmp_path):
    # the bytes of one tiny input per container: a writer edit that changes
    # a format fails here
    path = tmp_path / "c"
    qw = QuantizedBlockMatrix(codes=np.array([[1, -127], [0, 127]], dtype=np.int8),
                              scales=np.array([[0.5]]), clips=np.array([[1.0]]),
                              mse=np.zeros((1, 1)), block_shape=(2, 2))
    save_block_matrix(path, qw)
    assert path.read_bytes() == (
        b"QBLKI8\x00\x00" b"\x02\x00\x00\x00\x02\x00\x00\x00\x02\x00\x00\x00\x02\x00\x00\x00"
        b"\x00\x00\x00\x3f" b"\x00\x00\x80\x3f" b"\x01\x81\x00\x7f"
    )
    back = load_block_matrix(path)
    assert np.array_equal(back.codes, qw.codes) and back.block_shape == (2, 2)
    assert np.array_equal(back.scales, qw.scales) and np.array_equal(back.clips, qw.clips)
    qa = QuantizedGroupActivation(codes=np.array([[3, -5]], dtype=np.int8),
                                  scales=np.array([[0.25]]), group_size=2)
    save_group_activation(path, qa)
    assert path.read_bytes() == (
        b"QGRPI8\x00\x00" b"\x01\x00\x00\x00\x02\x00\x00\x00\x02\x00\x00\x00"
        b"\x00\x00\x80\x3e" b"\x03\xfb"
    )
    back = load_group_activation(path)
    assert np.array_equal(back.codes, qa.codes) and back.group_size == 2
    assert np.array_equal(back.scales, qa.scales)
