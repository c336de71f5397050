"""8-bit float (1 sign, 4 exponent, 3 mantissa) activation emulation.

Uses the saturating no-infinity variant: the top exponent keeps seven
finite steps and only mantissa 111 encodes NaN, so the largest finite
magnitude is 448. Values outside [-448, 448] saturate on encode. Encoding
rounds to nearest with ties to the even mantissa, by exponent arithmetic
(frexp, then rint in steps of the value's binade). Group scaling mirrors
the INT8 layout (448 in place of 127); products share its tile loop, in
float64: a product with a code reaches 448 * 127 * 2**9 units of 2**-9,
past float32's 2**24.
"""

from __future__ import annotations

import numpy as np

from .quant import DEFAULT_GROUP_SIZE, QuantizedBlockMatrix, QuantizedGroupActivation, encode_groups, int8_tiles
from .tensor_ops import as_f64

MAN_BITS = 3
EXP_BIAS = 7
MAX_FINITE = 448.0
NAN_CODE = 0x7F  # exponent 15, mantissa 7


def decode_code(code: int) -> float:
    """Value of one 8-bit code: sign bit 7, exponent bits 6..3, mantissa 2..0."""
    sign = -1.0 if code & 0x80 else 1.0
    exp = (code >> MAN_BITS) & 0x0F
    man = code & 0x07
    if exp == 0x0F and man == 0x07:
        return float("nan")
    if exp == 0:
        mag = man * 2.0 ** (1 - EXP_BIAS - MAN_BITS)  # subnormal: m * 2^-9
    else:
        mag = (1.0 + man / 8.0) * 2.0 ** (exp - EXP_BIAS)
    return sign * mag


CODEPOINTS = np.array([decode_code(c) for c in range(256)])


def encode_array(x: np.ndarray) -> np.ndarray:
    """Nearest representable code for every finite element, ties to the even
    mantissa, out-of-range magnitudes saturated to +-448; NaN is rejected.
    The exponent field E comes from frexp (1 for zero and subnormals), and
    rint counts the magnitude in steps of its binade, 2**(E - 10), ties to
    even: 8 to 16 steps for a normal, whose leading 8 the field's bits
    carry, and 16 rolls into the next exponent as the bits add.
    tests/test_fp8.py keeps a scalar oracle of the same code choice."""
    arr = as_f64(x)
    if np.isnan(arr).any():
        raise ValueError("NaN is not encodable; reject NaN upstream")
    mag = np.abs(arr)
    np.minimum(mag, MAX_FINITE, out=mag)  # in place, as below: each full-size temporary costs time
    exp = np.frexp(mag)[1]  # 1.0 is 0.5 * 2**1
    exp += EXP_BIAS - 1
    np.maximum(exp, 1, out=exp)
    exp[mag == 0.0] = 1  # frexp gives zero the exponent 0, not a subnormal's
    steps = np.ldexp(mag, EXP_BIAS + MAN_BITS - exp)
    np.rint(steps, out=steps)
    exp <<= MAN_BITS
    exp -= 1 << MAN_BITS  # the leading 8 steps of a normal sit in the exponent field
    codes = steps.astype(np.uint8)
    codes += exp.astype(np.uint8)
    codes |= np.signbit(arr).view(np.uint8) << 7
    return codes


def decode_array(codes: np.ndarray) -> np.ndarray:
    return CODEPOINTS[np.asarray(codes, dtype=np.uint8)]


class Fp8GroupActivation(QuantizedGroupActivation):
    """Groupwise 8-bit-float activations; scale = max|group| / 448. The
    group layout is the INT8 one; only the code decoding differs."""

    decode = staticmethod(decode_array)
    max_units = int(MAX_FINITE) << 9  # |decoded code| in units of 2**-9, the subnormal step


def fp8_quantize(x, group_size: int = DEFAULT_GROUP_SIZE) -> Fp8GroupActivation:
    codes, scales = encode_groups(x, group_size, MAX_FINITE, encode_array, np.uint8, "fp8_quantize")
    return Fp8GroupActivation(codes=codes, scales=scales, group_size=group_size)


def fp8_matmul_emulated(a: Fp8GroupActivation, w: QuantizedBlockMatrix) -> np.ndarray:
    """The int8_tiles loop with decoded activation codes in each tile
    product: 8-bit-float values are multiples of 2**-9 of magnitude at most
    448 (max_units 448 * 2**9 of them), so int8_tiles runs every tile in
    float64, where the sums are exact, as on the integer paths."""
    decoded = a.decode(a.codes)
    return int8_tiles(a, w, lambda rows, w_band: decoded[:, rows] @ w_band)
