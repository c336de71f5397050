"""Tests for the 8-bit float (1-4-3, no-infinity) emulation.

The decode table is checked against an oracle built by a different route:
exact rational ladder-stepping per binade (base + mantissa * ulp with
fractions.Fraction) instead of the module's (1 + m/8) * 2^(e-7) product.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest

from dssalab.fp8 import (
    CODEPOINTS,
    MAX_FINITE,
    NAN_CODE,
    Fp8GroupActivation,
    decode_array,
    decode_code,
    encode_array,
    encode_value,
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
    x = np.concatenate(
        [
            rng.normal(0.0, 100.0, size=300),
            np.array([0.0, -0.0, 448.0, -448.0, 1000.0, -1000.0, 1.0625, -1.0625, 2.0**-10]),
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


def test_matmul_emulated_plain_and_quantized_weights():
    rng = np.random.default_rng(42)
    x = rng.normal(0.0, 2.0, size=(6, 16))
    w = rng.normal(0.0, 0.5, size=(16, 5))
    qa = fp8_quantize(x, group_size=8)
    got = fp8_matmul_emulated(qa, w)
    assert np.array_equal(got, qa.dequantize() @ w)
    qw = quantize_weight_blocks(w, block_shape=(8, 8))
    got_q = fp8_matmul_emulated(qa, qw)
    assert np.array_equal(got_q, qa.dequantize() @ qw.dequantize())
    with pytest.raises(ShapeError):
        fp8_matmul_emulated(qa, np.zeros((4, 3)))
