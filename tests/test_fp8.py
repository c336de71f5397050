"""Tests for the 8-bit float (1-4-3, no-infinity) emulation.

The decode table is checked against an oracle built by a different route:
exact rational ladder-stepping per binade (base + mantissa * ulp with
fractions.Fraction) instead of the module's (1 + m/8) * 2^(e-7) product.
"""

from __future__ import annotations

import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from conftest import int64_tile_product

from dssalab.fp8 import (
    CODEPOINTS,
    MAX_FINITE,
    NAN_CODE,
    Fp8GroupActivation,
    decode_array,
    decode_code,
    encode_array,
    fp8_matmul_emulated,
    fp8_quantize,
)
from dssalab.quant import quantize_weight_blocks
from dssalab.tensor_ops import ShapeError


def oracle_table() -> list[float]:
    """All 256 code values via exact rational ladder-stepping."""
    table: list[float] = []
    for code in range(256):
        sign = -1 if code & 0x80 else 1
        exp = (code >> 3) & 0x0F
        man = code & 0x07
        if exp == 0x0F and man == 0x07:
            table.append(float("nan"))
            continue
        if exp == 0:
            ulp = Fraction(1, 2**9)
            mag = man * ulp
        else:
            base = Fraction(2) ** (exp - 7)
            ulp = base / 8
            mag = base + man * ulp
        table.append(float(sign * mag))
    return table


# finite non-negative codes in ascending value order, for the scalar oracle
_FINITE_POS = np.array([c for c in range(128) if not np.isnan(CODEPOINTS[c])], dtype=np.uint8)
_SORTED_CODES = _FINITE_POS[np.argsort(CODEPOINTS[_FINITE_POS], kind="stable")]
_SORTED_VALUES = CODEPOINTS[_SORTED_CODES]


def encode_value(x: float) -> int:
    """Scalar oracle of encode_array: nearest representable code for a finite
    real, ties to even mantissa, out-of-range magnitudes saturated to +-448."""
    if np.isnan(x):
        raise ValueError("NaN is not encodable; reject NaN upstream")
    sign_bit = 0x80 if (x < 0.0 or (x == 0.0 and np.signbit(x))) else 0
    mag = min(abs(float(x)), MAX_FINITE)
    hi = int(np.searchsorted(_SORTED_VALUES, mag, side="left"))
    if hi == 0:
        code = _SORTED_CODES[0]
    elif hi >= len(_SORTED_VALUES):
        code = _SORTED_CODES[-1]
    else:
        below, above = _SORTED_VALUES[hi - 1], _SORTED_VALUES[hi]
        d_lo, d_hi = mag - below, above - mag
        if d_lo < d_hi:
            code = _SORTED_CODES[hi - 1]
        elif d_hi < d_lo:
            code = _SORTED_CODES[hi]
        else:  # midpoint: take the even mantissa
            code = _SORTED_CODES[hi] if _SORTED_CODES[hi] & 1 == 0 else _SORTED_CODES[hi - 1]
    return int(code) | sign_bit


def test_decode_table_matches_independent_oracle():
    want = oracle_table()
    assert CODEPOINTS.shape == (256,)
    for code in range(256):
        if np.isnan(want[code]):
            assert np.isnan(CODEPOINTS[code])
            assert np.isnan(decode_code(code))
        else:
            assert CODEPOINTS[code] == want[code]
            assert decode_code(code) == want[code]


def test_nan_codes_and_rejection():
    assert NAN_CODE == 0x7F
    assert np.isnan(decode_code(0x7F))
    assert np.isnan(decode_code(0xFF))
    # exactly two NaN codes in the table
    assert int(np.isnan(CODEPOINTS).sum()) == 2
    with pytest.raises(ValueError):
        encode_value(float("nan"))
    with pytest.raises(ValueError):
        encode_array(np.array([1.0, float("nan")]))


def test_extremes_and_special_points():
    assert decode_code(0x7E) == MAX_FINITE == 448.0
    assert decode_code(0xFE) == -448.0
    assert decode_code(0x00) == 0.0
    # smallest positive subnormal is 2^-9
    assert decode_code(0x01) == 2.0**-9
    # one is exponent 7 (biased), mantissa 0
    assert decode_code(0x38) == 1.0
    assert decode_code(0xB8) == -1.0


def test_exact_roundtrip_for_every_finite_code():
    for code in range(256):
        value = CODEPOINTS[code]
        if np.isnan(value):
            continue
        back = CODEPOINTS[encode_value(float(value))]
        assert back == value


def test_saturation():
    assert CODEPOINTS[encode_value(1.0e6)] == 448.0
    assert CODEPOINTS[encode_value(-1.0e6)] == -448.0
    assert CODEPOINTS[encode_value(448.0)] == 448.0
    assert CODEPOINTS[encode_value(448.0 + 1e-9)] == 448.0
    arr = encode_array(np.array([1.0e6, -1.0e6, 448.0]))
    assert np.array_equal(decode_array(arr), [448.0, -448.0, 448.0])


def test_round_to_nearest_ties_to_even_mantissa():
    # neighbors around 1.0: mantissa steps of 0.125
    assert CODEPOINTS[encode_value(1.0625)] == 1.0  # tie between 1.0 (m=0) and 1.125 (m=1)
    assert CODEPOINTS[encode_value(1.1875)] == 1.25  # tie between 1.125 (m=1) and 1.25 (m=2)
    assert CODEPOINTS[encode_value(1.06)] == 1.0  # below the midpoint
    assert CODEPOINTS[encode_value(1.07)] == 1.125  # above the midpoint
    # subnormal tie between 0 (m=0) and 2^-9 (m=1) lands on zero
    assert CODEPOINTS[encode_value(2.0**-10)] == 0.0
    # negative ties mirror the positive ones
    assert CODEPOINTS[encode_value(-1.0625)] == -1.0


def test_encode_nearest_against_brute_force():
    finite = np.array([v for v in CODEPOINTS if not np.isnan(v)])
    rng = np.random.default_rng(20240817)
    values = rng.uniform(-500.0, 500.0, size=500)
    for x in values:
        got = CODEPOINTS[encode_value(float(x))]
        clipped = float(np.clip(x, -448.0, 448.0))
        best = float(finite[np.argmin(np.abs(finite - clipped))])
        assert abs(got - clipped) == pytest.approx(abs(best - clipped), abs=0.0)


def test_relative_error_bound_in_normal_range():
    rng = np.random.default_rng(7)
    mags = np.exp(rng.uniform(np.log(2.0**-6), np.log(448.0), size=2000))
    signs = rng.choice([-1.0, 1.0], size=2000)
    x = mags * signs
    back = decode_array(encode_array(x))
    rel = np.abs(back - x) / np.abs(x)
    assert np.max(rel) <= 2.0**-4 + 1e-15


def test_encode_array_matches_scalar_encode():
    rng = np.random.default_rng(11)
    midpoints = (_SORTED_VALUES[:-1] + _SORTED_VALUES[1:]) / 2.0
    x = np.concatenate(
        [
            rng.normal(0.0, 100.0, size=300),
            np.array([0.0, -0.0, 448.0, -448.0, 1000.0, -1000.0, 1.0625, -1.0625, 2.0**-10]),
            midpoints,  # every tie, half of them resolved upward to the even mantissa
            -midpoints,
            np.nextafter(midpoints, 0.0),
            np.nextafter(midpoints, 448.0),
        ]
    )
    got = encode_array(x)
    want = np.array([encode_value(float(v)) for v in x], dtype=np.uint8)
    assert np.array_equal(got, want)


def test_encode_is_monotone_on_sorted_input():
    x = np.sort(np.random.default_rng(3).uniform(-448.0, 448.0, size=1000))
    decoded = decode_array(encode_array(x))
    assert np.all(np.diff(decoded) >= 0.0)


def test_group_scales_and_roundtrip():
    x = np.array(
        [
            [1.0, -2.0, 4.0, 0.5, 3.0],
            [0.0, 0.0, 0.0, 0.0, -7.0],
        ]
    )
    qa = fp8_quantize(x, group_size=4)
    assert isinstance(qa, Fp8GroupActivation)
    assert qa.scales.shape == (2, 2)
    assert qa.scales[0, 0] == 4.0 / 448.0
    assert qa.scales[0, 1] == 3.0 / 448.0
    assert qa.scales[1, 0] == 1.0  # all-zero group keeps the neutral scale
    assert qa.scales[1, 1] == 7.0 / 448.0
    back = qa.dequantize()
    # the group max always hits the 448 codepoint, so it roundtrips exactly
    assert back[0, 2] == 4.0
    assert back[1, 4] == -7.0
    assert np.array_equal(back[1, :4], np.zeros(4))
    rel = np.abs(back[0] - x[0]) / np.abs(x[0])
    assert np.max(rel) <= 2.0**-4 + 1e-15


def test_quantize_validation():
    with pytest.raises(ShapeError):
        fp8_quantize(np.zeros(8))
    with pytest.raises(ValueError):
        fp8_quantize(np.array([[np.inf, 1.0]]))
    with pytest.raises(ValueError):
        fp8_quantize(np.ones((2, 4)), group_size=0)


def test_matmul_emulated_quantized_weights():
    rng = np.random.default_rng(42)
    x = rng.normal(0.0, 2.0, size=(6, 16))
    w = rng.normal(0.0, 0.5, size=(16, 5))
    qa = fp8_quantize(x, group_size=8)
    qw = quantize_weight_blocks(w, block_shape=(8, 8))
    got = fp8_matmul_emulated(qa, qw)
    ref = qa.dequantize() @ qw.dequantize()
    assert np.all(np.abs(got - ref) <= 1e-12 * max(1.0, float(np.abs(ref).max())))
    with pytest.raises(ShapeError):  # activation groups of 8 against block rows of 4
        fp8_matmul_emulated(qa, quantize_weight_blocks(w, block_shape=(4, 8)))
    with pytest.raises(ShapeError):  # inner dims 16 against 12
        fp8_matmul_emulated(qa, quantize_weight_blocks(w[:12], block_shape=(8, 8)))


# (n, d, m, group = block rows, block cols): partial last groups and blocks,
# zero rows, a single column, group 4096
_TILE_SHAPES = [
    (6, 16, 5, 8, 8),
    (7, 130, 260, 64, 32),
    (5, 300, 77, 128, 128),
    (0, 16, 4, 8, 8),
    (1, 1, 1, 1, 1),
    (3, 4100, 3, 4096, 2),
    (9, 256, 256, 128, 128),
]


@pytest.mark.parametrize("scale", [1e-2, 1.0, 1e3])
@pytest.mark.parametrize("n,d,m,group,block_cols", _TILE_SHAPES)
def test_matmul_emulated_equals_int64_tile_oracle(n, d, m, group, block_cols, scale):
    rng = np.random.default_rng(n * 7919 + d)
    x = rng.standard_normal((n, d)) * scale
    x[1::4] = 0.0  # all-zero rows keep the neutral group scale
    qa = fp8_quantize(x, group_size=group)
    qw = quantize_weight_blocks(rng.standard_normal((d, m)), grid=(1.0, 0.8), block_shape=(group, block_cols))
    got = fp8_matmul_emulated(qa, qw)
    assert got.shape == (n, m)
    assert np.array_equal(got, int64_tile_product(qa, qw))


def test_matmul_emulated_memory_is_bounded():
    # one weight band per activation group: a dequantized 1024x1024 weight
    # alone would take 8 MiB
    rng = np.random.default_rng(47)
    qa = fp8_quantize(rng.standard_normal((64, 1024)), group_size=128)
    qw = quantize_weight_blocks(rng.standard_normal((1024, 1024)) / 32.0, grid=(1.0,))
    tracemalloc.start()
    try:
        fp8_matmul_emulated(qa, qw)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 1024 * 1024, peak
