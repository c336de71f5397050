"""8-bit float (1 sign, 4 exponent, 3 mantissa) activation emulation.

Uses the saturating no-infinity variant: the top exponent keeps seven
finite steps and only mantissa 111 encodes NaN, so the largest finite
magnitude is 448. Values outside [-448, 448] saturate on encode. Encoding
rounds to nearest with ties to the even mantissa. Group scaling mirrors
the INT8 layout (448 in place of 127); products share its tile loop.
"""

from __future__ import annotations

import numpy as np

from .quant import QuantizedBlockMatrix, QuantizedGroupActivation, encode_groups, int8_tiles
from .tensor_ops import as_f64

EXP_BITS = 4
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


def _build_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    codepoints = np.array([decode_code(c) for c in range(256)])
    finite_pos = np.array([c for c in range(128) if not np.isnan(codepoints[c])], dtype=np.uint8)
    order = np.argsort(codepoints[finite_pos], kind="stable")
    sorted_codes = finite_pos[order]
    return codepoints, codepoints[sorted_codes], sorted_codes


CODEPOINTS, _SORTED_VALUES, _SORTED_CODES = _build_tables()
# midpoints of neighbouring non-negative finite values, exact in float64: a
# magnitude below one is nearer the lower value, above it the upper one
_MIDPOINTS = (_SORTED_VALUES[:-1] + _SORTED_VALUES[1:]) / 2.0


def encode_array(x: np.ndarray) -> np.ndarray:
    """Nearest representable code for every finite element, ties to the even
    mantissa, out-of-range magnitudes saturated to +-448; NaN is rejected.
    Searching the midpoints keeps three full-size arrays live at most.
    tests/test_fp8.py keeps a scalar oracle of the same code choice."""
    arr = as_f64(x)
    if np.isnan(arr).any():
        raise ValueError("NaN is not encodable; reject NaN upstream")
    mag = np.minimum(np.abs(arr), MAX_FINITE)
    idx = np.searchsorted(_MIDPOINTS, mag, side="left")  # nearest value, ties down; mag <= 448
    tie = _MIDPOINTS.take(idx, mode="clip") == mag  # idx past the last midpoint is no tie
    idx += tie & ((_SORTED_CODES[idx] & 1) == 1)  # a tie goes to the even mantissa
    codes = _SORTED_CODES[idx]
    return np.where(np.signbit(arr), codes | 0x80, codes)


def decode_array(codes: np.ndarray) -> np.ndarray:
    return CODEPOINTS[np.asarray(codes, dtype=np.uint8)]


class Fp8GroupActivation(QuantizedGroupActivation):
    """Groupwise 8-bit-float activations; scale = max|group| / 448. The
    group layout is the INT8 one; only the code decoding differs."""

    decode = staticmethod(decode_array)


def fp8_quantize(x, group_size: int = 128) -> Fp8GroupActivation:
    codes, scales = encode_groups(x, group_size, MAX_FINITE, encode_array, np.uint8, "fp8_quantize")
    return Fp8GroupActivation(codes=codes, scales=scales, group_size=group_size)


def fp8_matmul_emulated(a: Fp8GroupActivation, w: QuantizedBlockMatrix) -> np.ndarray:
    """The int8_tiles loop with decoded activation codes in each tile
    product: 8-bit-float values are multiples of 2**-9 of magnitude at most
    448, so tile sums are exact in float64, as on the integer paths."""
    decoded = a.decode(a.codes)
    return int8_tiles(a, w, lambda rows, w_band: decoded[:, rows] @ w_band)
