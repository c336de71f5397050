"""Shared fixture builders for the test suite."""

from __future__ import annotations

import numpy as np

from dssalab.stack import DEFAULT_MOBA_LAYERS, SensitivityProfile


def int32_tile_product(qa, qw) -> np.ndarray:
    """The int32 (group, block-column) tile loop that quant.int8_tiles ran
    before its products moved to float64 GEMMs, kept as the independent
    integer oracle of both integer paths: each tile's int32 sum is scaled
    in float64, and tiles are summed in ascending group order."""
    rs, cs = qw.block_shape
    out = np.zeros((qa.shape[0], qw.codes.shape[1]))
    for g in range(qa.scales.shape[1]):
        rows = slice(g * rs, (g + 1) * rs)
        for bc in range(qw.scales.shape[1]):
            cols = slice(bc * cs, (bc + 1) * cs)
            acc = qa.codes[:, rows].astype(np.int32) @ qw.codes[rows, cols].astype(np.int32)
            out[:, cols] += acc.astype(np.float64) * qa.scales[:, g : g + 1] * qw.scales[g, bc]
    return out


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
