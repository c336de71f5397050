from __future__ import annotations

import numpy as np
import pytest

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
    # plane content check against plain binary expansion
    for j in range(NUM_PLANES):
        want = (np.abs(codes.astype(np.int16)) >> j) & 1
        assert np.array_equal(train.planes[j].astype(np.int16), want)


def test_zero_gives_silent_planes():
    train = spike_encode(make_qa(np.zeros((2, 4))))
    assert np.all(train.planes == 0)
    assert firing_rate(train) == 0.0


def test_minus_127_fires_every_plane():
    train = spike_encode(make_qa(np.array([[-127]]), group_size=1))
    assert train.signs[0, 0] == -1
    assert np.all(train.planes[:, 0, 0] == 1)
    assert firing_rate(train) == 1.0


def test_plane_weights_reconstruct_magnitude():
    rng = np.random.default_rng(40)
    codes = rng.integers(-127, 128, size=(5, 12)).astype(np.int8)
    train = spike_encode(make_qa(codes))
    weights = sum(train.planes[j].astype(np.int32) << j for j in range(NUM_PLANES))
    assert np.array_equal(weights * train.signs, codes.astype(np.int32))


def test_spike_matmul_bit_exact_vs_reference():
    rng = np.random.default_rng(41)
    for _ in range(10):
        x = rng.standard_normal((8, 32)) * rng.uniform(0.1, 4.0)
        w = rng.standard_normal((32, 12)) * rng.uniform(0.1, 4.0)
        qa = quantize_activation_groups(x, group_size=8)
        qw = quantize_weight_blocks(w, block_shape=(8, 8))
        got, _ = spike_matmul(spike_encode(qa), qw)
        assert np.array_equal(got, int8_matmul_reference(qa, qw))


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
    fired = int(train.planes.sum(dtype=np.int64))
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


def all_127_tile(g: int):
    # one tile g codes wide, every activation and weight code 127, unit scales
    qa = make_qa(np.full((1, g), 127), group_size=g)
    qw = QuantizedBlockMatrix(
        codes=np.full((g, 1), 127, dtype=np.int8),
        scales=np.ones((1, 1)),
        clips=np.ones((1, 1)),
        mse=np.zeros((1, 1)),
        block_shape=(g, 1),
    )
    return qa, qw


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
