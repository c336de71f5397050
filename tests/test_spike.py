from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from conftest import int32_tile_product
from hypothesis import given
from hypothesis import strategies as st

from dssalab.quant import (
    QuantizedBlockMatrix,
    QuantizedGroupActivation,
    int8_matmul_reference,
    quantize_activation_groups,
    quantize_weight_blocks,
)
from dssalab.spike import (
    NUM_PLANES,
    firing_rate,
    spike_decode,
    spike_encode,
    spike_matmul,
)
from dssalab.tensor_ops import ShapeError


def make_qa(codes: np.ndarray, group_size: int = 4) -> QuantizedGroupActivation:
    codes = np.asarray(codes, dtype=np.int8)
    n_groups = (codes.shape[1] + group_size - 1) // group_size
    return QuantizedGroupActivation(
        codes=codes, scales=np.ones((codes.shape[0], n_groups)), group_size=group_size
    )


def test_exhaustive_int8_roundtrip():
    codes = np.arange(-127, 128, dtype=np.int8).reshape(1, -1)
    qa = make_qa(codes, group_size=255)
    train = spike_encode(qa)
    back = spike_decode(train)
    assert np.array_equal(back.codes, codes)
    # plane content check against the signed binary expansion
    for j in range(NUM_PLANES):
        want = np.sign(codes.astype(np.int16)) * ((np.abs(codes.astype(np.int16)) >> j) & 1)
        assert np.array_equal(train.planes[j].astype(np.int16), want)


def test_encode_refuses_codes_outside_127():
    # -128 has no 7-plane magnitude; a wider integer dtype can hold more
    for code, dtype in ((-128, np.int8), (128, np.int16), (-200, np.int16)):
        qa = QuantizedGroupActivation(
            codes=np.array([[0, code]], dtype=dtype), scales=np.ones((1, 1)), group_size=2
        )
        with pytest.raises(ValueError, match=r"outside \[-127, 127\]"):
            spike_encode(qa)


def test_zero_gives_silent_planes():
    train = spike_encode(make_qa(np.zeros((2, 4))))
    assert np.all(train.planes == 0)
    assert firing_rate(train) == 0.0


def test_minus_127_fires_every_plane():
    train = spike_encode(make_qa(np.array([[-127]]), group_size=1))
    assert train.planes.dtype == np.int8
    assert np.all(train.planes[:, 0, 0] == -1)
    assert firing_rate(train) == 1.0


def test_plane_weights_reconstruct_magnitude():
    rng = np.random.default_rng(40)
    codes = rng.integers(-127, 128, size=(5, 12)).astype(np.int8)
    train = spike_encode(make_qa(codes))
    weights = sum(train.planes[j].astype(np.int32) << j for j in range(NUM_PLANES))
    assert np.array_equal(weights, codes.astype(np.int32))


@given(
    rows=st.integers(0, 4),
    cols=st.integers(1, 12),
    group=st.integers(1, 12),
    m=st.integers(1, 5),
    data=st.data(),
)
def test_signed_planes_expand_each_code_property(rows, cols, group, m, data):
    """Every plane entry is -1, 0 or 1, a fired entry carries its code's
    sign, |planes| weighted by 2**plane is |code| (so, being 0 or 1, the
    binary expansion), and the firing rate and event counts equal a
    popcount oracle exactly."""
    code = st.one_of(st.sampled_from((0, 127, -127)), st.integers(-127, 127))
    flat = data.draw(st.lists(code, min_size=rows * cols, max_size=rows * cols))
    codes = np.array(flat, dtype=np.int16).reshape(rows, cols)
    train = spike_encode(make_qa(codes, group_size=group))
    assert train.planes.dtype == np.int8 and train.planes.shape == (NUM_PLANES, rows, cols)
    assert train.shape == (rows, cols)
    planes = train.planes.astype(np.int64)
    assert np.isin(planes, (-1, 0, 1)).all()
    fired = planes != 0
    assert np.array_equal(planes[fired], np.broadcast_to(np.sign(codes), planes.shape)[fired])
    assert np.array_equal(np.tensordot(2 ** np.arange(NUM_PLANES), np.abs(planes), axes=1), np.abs(codes))

    popcount = sum(bin(abs(c)).count("1") for c in flat)
    slots = NUM_PLANES * rows * cols
    assert firing_rate(train) == (popcount / slots if slots else 0.0)
    groups = -(-cols // group)
    qw = QuantizedBlockMatrix(
        codes=np.ones((cols, m), dtype=np.int8),
        scales=np.ones((groups, 1)),
        clips=np.ones((groups, 1)),
        mse=np.zeros((groups, 1)),
        block_shape=(group, m),
    )
    _, report = spike_matmul(train, qw)
    counts = (report.add_events, report.skipped_events, report.dense_mac_equivalent)
    assert counts == (popcount * m, (NUM_PLANES * rows * cols - popcount) * m, rows * cols * m)
    assert all(type(count) is int for count in counts)  # the CLI writes them as JSON


def test_spike_matmul_bit_exact_vs_reference():
    rng = np.random.default_rng(41)
    for _ in range(10):
        x = rng.standard_normal((8, 32)) * rng.uniform(0.1, 4.0)
        w = rng.standard_normal((32, 12)) * rng.uniform(0.1, 4.0)
        qa = quantize_activation_groups(x, group_size=8)
        qw = quantize_weight_blocks(w, block_shape=(8, 8))
        oracle = int32_tile_product(qa, qw)
        got, _ = spike_matmul(spike_encode(qa), qw)
        assert np.array_equal(got, oracle)
        assert np.array_equal(int8_matmul_reference(qa, qw), oracle)


def unit_tile(a_codes, w_codes):
    # one group over the whole inner dim, one block column, unit scales
    qa = make_qa(a_codes, group_size=a_codes.shape[1])
    qw = QuantizedBlockMatrix(
        codes=np.asarray(w_codes, dtype=np.int8),
        scales=np.ones((1, 1)),
        clips=np.ones((1, 1)),
        mse=np.zeros((1, 1)),
        block_shape=(a_codes.shape[1], w_codes.shape[1]),
    )
    return qa, qw


def all_127_tile(g: int):
    # one tile g codes wide, every activation and weight code 127
    return unit_tile(np.full((1, g), 127), np.full((g, 1), 127))


def test_integer_paths_exact_at_the_edges():
    rng = np.random.default_rng(45)
    cases = []
    # (rows, inner dim, columns, group size, block columns)
    for n, d, m, g, bc in (
        (5, 20, 13, 8, 8),  # a partial last group and a partial last block column
        (6, 130, 260, 64, 32),  # block width differs from the group size
        (0, 24, 10, 8, 8),  # zero token rows
    ):
        qa = quantize_activation_groups(rng.standard_normal((n, d)), group_size=g)
        qw = quantize_weight_blocks(rng.standard_normal((d, m)), block_shape=(g, bc))
        cases.append((qa, qw))
    # summed in order, the partial sums pass 2**24 (float32's mantissa) before the halves cancel
    half = np.full((1, 2048), 127)
    cases.append(unit_tile(np.hstack([half, -half]), np.full((4096, 1), 127)))
    # an odd sum above 2**24, per plane too: float32 cannot hold it in any order
    cases.append(all_127_tile(133_143))
    # the widest tiles int8_tiles runs in float32 (127*127*1,040 < 2**24), and
    # the narrowest it must not: 127*127*1,041 is odd and above 2**24
    for g in (1040, 1041):
        cases.append(all_127_tile(g))
        cases.append(unit_tile(np.full((1, g), -127), np.full((g, 1), 127)))
    for qa, qw in cases:
        oracle = int32_tile_product(qa, qw)
        assert oracle.shape == (qa.shape[0], qw.shape[1])
        assert np.array_equal(int8_matmul_reference(qa, qw), oracle)
        assert np.array_equal(spike_matmul(spike_encode(qa), qw)[0], oracle)


@st.composite
def _integer_tiling(draw):
    """Codes and scales of an activation and a block-quantized weight. Group
    widths are drawn small, next to float32's 2**24 bound (1,040 of 127*127)
    and next to the int32 guard (133,144), with partial last groups and
    block columns. Codes are uniform, or +-127 with one sign per row and per
    column so that every tile sum reaches 127*127 times its width, and some
    activation rows are zero."""
    width = draw(st.one_of(st.integers(1, 48), st.sampled_from((1040, 1041, 133_144, 133_145))))
    small = width <= 48
    n = draw(st.integers(0, 5 if small else 2))
    d = draw(st.integers(1, 3 * width) if small else st.integers(width - 1, width + 1))
    m = draw(st.integers(1, 24 if small else 3))
    bc = draw(st.integers(1, m + 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        a_codes = rng.integers(-127, 128, (n, d))
        w_codes = rng.integers(-127, 128, (d, m))
    else:
        a_codes = np.repeat(rng.choice([-127, 127], (n, 1)), d, axis=1)
        w_codes = np.repeat(rng.choice([-127, 127], (1, m)), d, axis=0)
    a_codes[rng.random(n) < 0.3] = 0
    groups, block_cols = -(-d // width), -(-m // bc)
    qa = QuantizedGroupActivation(
        codes=a_codes.astype(np.int8), scales=rng.uniform(0.01, 2.0, (n, groups)), group_size=width
    )
    qw = QuantizedBlockMatrix(
        codes=w_codes.astype(np.int8),
        scales=rng.uniform(0.01, 2.0, (groups, block_cols)),
        clips=np.ones((groups, block_cols)),
        mse=np.zeros((groups, block_cols)),
        block_shape=(width, bc),
    )
    return qa, qw


@given(case=_integer_tiling())
def test_integer_paths_match_int32_oracle_property(case):
    qa, qw = case
    if 127 * 127 * min(qa.group_size, qa.shape[1]) > 2**31 - 1:  # the widest tile can overflow int32
        for call in (lambda: int8_matmul_reference(qa, qw), lambda: spike_matmul(spike_encode(qa), qw)):
            with pytest.raises(ValueError, match="int32"):
                call()
        return
    oracle = int32_tile_product(qa, qw)
    assert np.array_equal(int8_matmul_reference(qa, qw), oracle)
    assert np.array_equal(spike_matmul(spike_encode(qa), qw)[0], oracle)


def test_integer_paths_memory_stays_below_4_mib():
    # in float64 a weight band is 1 MiB and the output 0.5 MiB; the seven plane
    # products stacked as one (7, 64, 1024) array would pass the bound
    rng = np.random.default_rng(46)
    qa = quantize_activation_groups(rng.standard_normal((64, 1024)), group_size=128)
    qw = quantize_weight_blocks(rng.standard_normal((1024, 1024)) / 32.0)
    train = spike_encode(qa)
    for name, call in (
        ("int8_matmul_reference", lambda: int8_matmul_reference(qa, qw)),
        ("spike_matmul", lambda: spike_matmul(train, qw)),
    ):
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * 1024 * 1024, (name, peak)


def test_spike_matmul_small_hand_case():
    # 2x3 @ 3x2, checked against a by-hand integer product
    a = make_qa(np.array([[1, -2, 3], [0, 5, -1]]), group_size=3)
    w_codes = np.array([[2, 1], [0, -1], [4, 2]], dtype=np.int8)
    qw = QuantizedBlockMatrix(
        codes=w_codes,
        scales=np.array([[1.0 / 127.0]]),
        clips=np.ones((1, 1)),
        mse=np.zeros((1, 1)),
        block_shape=(3, 2),
    )
    got, report = spike_matmul(spike_encode(a), qw)
    want_int = np.array([[14.0, 9.0], [-4.0, -7.0]])
    assert np.array_equal(got, want_int * 1.0 * (1.0 / 127.0))
    # fired bits by popcount: |1|=1, |-2|=1, |3|=2, |0|=0, |5|=2, |-1|=1 -> 7,
    # times 2 output columns
    assert report.add_events == 14
    assert report.dense_mac_equivalent == 12
    assert report.skipped_events == NUM_PLANES * 12 - 14


def test_zero_activations_zero_output_zero_events():
    qa = make_qa(np.zeros((3, 8)))
    qw = quantize_weight_blocks(np.ones((8, 4)), block_shape=(4, 4))
    got, report = spike_matmul(spike_encode(qa), qw)
    assert np.array_equal(got, np.zeros((3, 4)))
    assert report.add_events == 0
    assert report.skipped_events == NUM_PLANES * 3 * 8 * 4


def test_one_hot_probe_reads_weight_column():
    codes = np.zeros((1, 8), dtype=np.int8)
    codes[0, 3] = 1  # plane 0 only
    qa = make_qa(codes, group_size=8)
    rng = np.random.default_rng(42)
    w = rng.standard_normal((8, 5))
    qw = quantize_weight_blocks(w, block_shape=(8, 8))
    got, report = spike_matmul(spike_encode(qa), qw)
    want = qw.codes[3].astype(np.float64) * qw.scales[0, 0]  # row 3, unit activation scale
    assert np.array_equal(got[0], want)
    assert report.add_events == 5


def test_counting_identity_is_exact():
    rng = np.random.default_rng(43)
    x = rng.standard_normal((6, 16))
    w = rng.standard_normal((16, 7))
    qa = quantize_activation_groups(x, group_size=8)
    qw = quantize_weight_blocks(w, block_shape=(8, 8))
    train = spike_encode(qa)
    _, report = spike_matmul(train, qw)
    fired = int(np.abs(train.planes).sum(dtype=np.int64))
    assert report.add_events == fired * 7
    assert report.add_events + report.skipped_events == NUM_PLANES * report.dense_mac_equivalent
    # the rate identity, in exact integer form
    assert report.add_events * train.planes.size == fired * NUM_PLANES * report.dense_mac_equivalent


def test_all_max_magnitude_fires_everything():
    qa = make_qa(np.full((2, 8), 127), group_size=8)
    train = spike_encode(qa)
    assert firing_rate(train) == 1.0
    qw = quantize_weight_blocks(np.ones((8, 3)), block_shape=(8, 8))
    _, report = spike_matmul(train, qw)
    assert report.add_events == NUM_PLANES * report.dense_mac_equivalent
    assert report.skipped_events == 0


def test_firing_rate_uniform_magnitudes_near_half():
    # each magnitude bit of a uniform draw over [-127, 127] is close to fair
    rng = np.random.default_rng(44)
    codes = rng.integers(-127, 128, size=(100, 1000)).astype(np.int8)
    rate = firing_rate(spike_encode(make_qa(codes, group_size=1000)))
    assert abs(rate - 0.5) < 0.02


def test_firing_rate_over_collection():
    a = spike_encode(make_qa(np.zeros((1, 4))))
    b = spike_encode(make_qa(np.full((1, 4), 127)))
    assert firing_rate([a, b]) == 0.5
    assert firing_rate([]) == 0.0


def test_spike_matmul_validation():
    qa = make_qa(np.ones((2, 8)), group_size=4)
    qw = quantize_weight_blocks(np.ones((8, 2)), block_shape=(8, 2))
    with pytest.raises(ShapeError):
        spike_matmul(spike_encode(qa), qw)  # group size 4 vs block rows 8
    # a tile sum reaches 127*127*g, so g = 133,144 is the widest tile that fits int32
    qa, qw = all_127_tile(133_144)
    want = np.array([[127.0 * 127.0 * 133_144]])
    assert np.array_equal(int8_matmul_reference(qa, qw), want)
    assert np.array_equal(spike_matmul(spike_encode(qa), qw)[0], want)
    qa, qw = all_127_tile(133_145)
    with pytest.raises(ValueError, match="int32"):
        int8_matmul_reference(qa, qw)
    with pytest.raises(ValueError, match="int32"):
        spike_matmul(spike_encode(qa), qw)
    # the guard measures the widest tile, so a wide group over a narrow row is fine
    qa = quantize_activation_groups(np.ones((1, 8)), group_size=200_000)
    qw = quantize_weight_blocks(np.ones((8, 1)), block_shape=(200_000, 200_000))
    assert np.array_equal(spike_matmul(spike_encode(qa), qw)[0], int8_matmul_reference(qa, qw))
