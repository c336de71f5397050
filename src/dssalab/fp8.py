"""8-bit float (1 sign, 4 exponent, 3 mantissa) activation emulation.

Uses the saturating no-infinity variant: the top exponent keeps seven
finite steps and only mantissa 111 encodes NaN, so the largest finite
magnitude is 448. Values outside [-448, 448] saturate on encode. Encoding
rounds to nearest with ties to the even mantissa. Group scaling mirrors
the INT8 activation layout, with 448 in place of 127.
"""

from __future__ import annotations

import numpy as np

from .quant import QuantizedGroupActivation, encode_groups
from .tensor_ops import ShapeError, as_f64

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


def encode_value(x: float) -> int:
    """Nearest representable code for a finite real, ties to even mantissa,
    out-of-range magnitudes saturated to +-448."""
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


def encode_array(x: np.ndarray) -> np.ndarray:
    """Vectorized encode_value; identical code choice element for element."""
    arr = as_f64(x)
    if np.isnan(arr).any():
        raise ValueError("NaN is not encodable; reject NaN upstream")
    signs = np.where((arr < 0.0) | ((arr == 0.0) & np.signbit(arr)), 0x80, 0).astype(np.uint8)
    mag = np.minimum(np.abs(arr), MAX_FINITE)
    hi = np.searchsorted(_SORTED_VALUES, mag, side="left")  # mag <= max value, so hi is in range
    lo = np.maximum(hi - 1, 0)
    d_lo = mag - _SORTED_VALUES[lo]
    d_hi = _SORTED_VALUES[hi] - mag
    hi_even = (_SORTED_CODES[hi] & 1) == 0
    pick_hi = (d_hi < d_lo) | ((d_hi == d_lo) & hi_even)
    codes = np.where(pick_hi, _SORTED_CODES[hi], _SORTED_CODES[lo])
    return (codes | signs).astype(np.uint8)


def decode_array(codes: np.ndarray) -> np.ndarray:
    return CODEPOINTS[np.asarray(codes, dtype=np.uint8)]


class Fp8GroupActivation(QuantizedGroupActivation):
    """Groupwise 8-bit-float activations; scale = max|group| / 448. The
    group layout is the INT8 one; only the code decoding differs."""

    decode = staticmethod(decode_array)


def fp8_quantize(x, group_size: int = 128) -> Fp8GroupActivation:
    codes, scales = encode_groups(x, group_size, MAX_FINITE, encode_array, np.uint8, "fp8_quantize")
    return Fp8GroupActivation(codes=codes, scales=scales, group_size=group_size)


def fp8_matmul_emulated(a: Fp8GroupActivation, w) -> np.ndarray:
    """Decode the 8-bit activations to float64 and multiply against the
    weights (dequantized first when they arrive as a quantized container);
    accumulation stays in float64 throughout."""
    lhs = a.dequantize()
    rhs = w.dequantize() if hasattr(w, "dequantize") else as_f64(w)
    if lhs.shape[1] != rhs.shape[0]:
        raise ShapeError(f"inner dims disagree: {lhs.shape} @ {rhs.shape}")
    return lhs @ rhs
