"""Shared fixture builders for the test suite."""

from __future__ import annotations

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st

from dssalab.attention import ROW_CHUNK
from dssalab.stack import DEFAULT_MOBA_LAYERS, SensitivityProfile

# property tests draw the same examples on every run and keep no example
# database, so Tier-1 stays deterministic and writes nothing to the checkout
settings.register_profile("tier1", derandomize=True, database=None, deadline=None, max_examples=100)
settings.load_profile("tier1")

# sequence lengths k * ROW_CHUNK - 1, k * ROW_CHUNK and k * ROW_CHUNK + 1 for
# k = 1..3: the last chunk is one row short of full, full, or a single row
chunk_edge_lengths = st.builds(lambda k, d: k * ROW_CHUNK + d, st.integers(1, 3), st.integers(-1, 1))


def top_k_mask_sort(x, k: int) -> np.ndarray:
    """The stable argsort form that tensor_ops.top_k_mask ran before its
    argmax rounds, kept as their oracle: the k largest entries of each row,
    ties to the lower index."""
    order = np.argsort(-np.asarray(x, dtype=np.float64), axis=-1, kind="stable")
    mask = np.zeros(order.shape, dtype=bool)
    np.put_along_axis(mask, order[..., :k], True, axis=-1)
    return mask


def _exact_tiles(a_units, unit: float, dtype, qa, qw) -> np.ndarray:
    """The (group, block-column) tile loop over activation values given as
    integers a_units (value = a_units / unit): each tile sums exactly in
    integer dtype, is divided by unit (a power of two, so exactly) and
    scaled in float64, and tiles are summed in ascending group order."""
    rs, cs = qw.block_shape
    out = np.zeros((qa.shape[0], qw.codes.shape[1]))
    for g in range(qa.scales.shape[1]):
        rows = slice(g * rs, (g + 1) * rs)
        for bc in range(qw.scales.shape[1]):
            cols = slice(bc * cs, (bc + 1) * cs)
            acc = a_units[:, rows].astype(dtype) @ qw.codes[rows, cols].astype(dtype)
            out[:, cols] += acc.astype(np.float64) / unit * qa.scales[:, g : g + 1] * qw.scales[g, bc]
    return out


def int32_tile_product(qa, qw) -> np.ndarray:
    """The int32 tile loop that quant.int8_tiles ran before its products
    moved to float64 GEMMs, kept as the independent integer oracle of both
    integer paths."""
    return _exact_tiles(qa.codes, 1.0, np.int32, qa, qw)


def _fp8_units(codes: np.ndarray) -> np.ndarray:
    """8-bit-float (1-4-3) codes as integer multiples of 2**-9, read from
    the bits rather than the decode table: a subnormal is its mantissa m,
    a normal (8 + m) * 2**(exponent - 1)."""
    c = codes.astype(np.int64)
    exp, man = (c >> 3) & 0x0F, c & 0x07
    mag = np.where(exp == 0, man, (8 + man) << np.maximum(exp - 1, 0))
    return np.where(c & 0x80, -mag, mag)


def int64_tile_product(qa, qw) -> np.ndarray:
    """The int64 tile oracle of the 8-bit-float product: activation codes
    as multiples of 2**-9 times INT8 weight codes, summed exactly per tile."""
    return _exact_tiles(_fp8_units(qa.codes), 2.0**9, np.int64, qa, qw)


def make_dip_profile(
    seed: int = 42,
    num_layers: int = 36,
    dip_indices: tuple[int, ...] = DEFAULT_MOBA_LAYERS,
    dip: float = 10.0,
    slope: float = 4.0,
    noise: float = 0.3,
    base: float = 60.0,
) -> tuple[SensitivityProfile, list[int]]:
    """Synthetic sensitivity profile: a mild monotone rise with bounded
    noise, plus sharp dips planted at known layer indices."""
    rng = np.random.default_rng(seed)
    scores = base + slope * np.arange(num_layers) / max(num_layers - 1, 1)
    scores = scores + rng.uniform(-noise, noise, num_layers)
    for i in dip_indices:
        scores[i] -= dip
    return SensitivityProfile(scores=tuple(scores)), sorted(dip_indices)
