"""Shared fixture builders for the test suite."""

from __future__ import annotations

import numpy as np

from dssalab.stack import DEFAULT_MOBA_LAYERS, SensitivityProfile


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
