"""Bitwise spike expansion of INT8 activations.

Each int8 activation code becomes one sign plane plus 7 binary magnitude
planes (plane j holds bit j of |code|; |code| <= 127 so 7 planes cover it).
A matmul then runs as event-driven shift-add: per bit-plane, only firing
elements contribute an integer add, partial sums are shifted by the plane
weight, and signs fold in. The integer accumulators reproduce the int8
reference product exactly, so the event path is a lossless re-encoding,
not an approximation. The module also counts events to report how much of
the dense multiply-accumulate work the sparsity skips.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .quant import QuantizedBlockMatrix, QuantizedGroupActivation, int8_tiles

NUM_PLANES = 7
_PLANE_SHIFTS = np.arange(NUM_PLANES, dtype=np.uint8)[:, None, None]  # plane j holds bit j


@dataclass
class SpikeTrain:
    """Sign plane plus 7 magnitude bit-planes, with the group scales
    carried along so the train alone can drive a matmul."""

    signs: np.ndarray  # int8 in {-1, +1}, (n, d)
    planes: np.ndarray  # uint8 in {0, 1}, (7, n, d)
    scales: np.ndarray  # float64, (n, n_groups)
    group_size: int

    @property
    def shape(self) -> tuple[int, int]:
        return self.signs.shape


@dataclass
class OpCountReport:
    """Event accounting for one spike matmul.

    dense_mac_equivalent is the multiply-accumulate count of the plain
    int8 product; each MAC expands to 7 potential plane-level adds, of
    which add_events actually fired.
    """

    add_events: int
    skipped_events: int
    dense_mac_equivalent: int

    @property
    def plane_slots(self) -> int:
        return NUM_PLANES * self.dense_mac_equivalent


def spike_encode(qa: QuantizedGroupActivation) -> SpikeTrain:
    """Expand int8 codes into sign + bit-planes. Exactly invertible."""
    codes = qa.codes.astype(np.int16)
    mag = np.abs(codes)
    if mag.max(initial=0) > 127:
        raise ValueError("codes outside [-127, 127] cannot be spike-encoded")
    planes = mag.astype(np.uint8) >> _PLANE_SHIFTS
    planes &= 1  # in place: a second (7, n, d) array raises peak RSS
    signs = np.where(codes < 0, -1, 1).astype(np.int8)
    return SpikeTrain(signs=signs, planes=planes, scales=qa.scales, group_size=qa.group_size)


def spike_decode(train: SpikeTrain) -> QuantizedGroupActivation:
    mag = (train.planes.astype(np.int16) << _PLANE_SHIFTS).sum(axis=0, dtype=np.int16)
    codes = (train.signs.astype(np.int16) * mag).astype(np.int8)
    return QuantizedGroupActivation(codes=codes, scales=train.scales, group_size=train.group_size)


def firing_rate(trains) -> float:
    """Fired fraction of magnitude-plane slots, over one train or several.

    The sign plane is bookkeeping, not an event, so it stays out of both
    the numerator and the denominator.
    """
    if isinstance(trains, SpikeTrain):
        trains = [trains]
    fired = 0
    total = 0
    for train in trains:
        fired += int(train.planes.sum(dtype=np.int64))
        total += train.planes.size  # 7 * element count
    if total == 0:
        return 0.0
    return fired / total


def spike_matmul(train: SpikeTrain, w: QuantizedBlockMatrix) -> tuple[np.ndarray, OpCountReport]:
    """Event-driven product of a spike train with block-quantized weights.

    Per inner-dimension tile: every bit-plane contributes a signed {-1,0,1}
    integer product shifted left by its plane index, so the int32 tile
    accumulator equals the int8 tile product exactly. The tiles run through
    the same int8_tiles loop as int8_matmul_reference, which makes the whole
    result bit-identical to it.
    """
    def tile_product(rows: slice, w_tile: np.ndarray) -> np.ndarray:
        signs = train.signs[:, rows].astype(np.int32)
        acc = np.zeros((train.shape[0], w_tile.shape[1]), dtype=np.int32)
        for j in range(NUM_PLANES):
            acc += ((train.planes[j][:, rows].astype(np.int32) * signs) @ w_tile) << j
        return acc

    out = int8_tiles(train, w, tile_product)
    m = w.codes.shape[1]
    fired_bits = int(train.planes.sum(dtype=np.int64))
    dense_macs = train.signs.size * m
    add_events = fired_bits * m  # each fired bit adds one weight row into m columns
    report = OpCountReport(
        add_events=add_events,
        skipped_events=NUM_PLANES * dense_macs - add_events,
        dense_mac_equivalent=dense_macs,
    )
    return out, report
