"""Bitwise spike expansion of INT8 activations.

Each int8 activation code becomes 7 signed spike planes in one int8
array: plane j holds bit j of |code| carrying the code's sign, so a fired
bit is +1 or -1 and silence is 0 (|code| <= 127 so 7 planes cover it). A
matmul then runs as event-driven shift-add: per plane, only firing elements
contribute a signed add, and the plane's sum is weighted by 2**plane. Per
activation group the seven planes are cast once, stacked as one (7n, width)
matrix, and each slice of at most COL_SLICE weight columns takes one GEMM
with it in the weight band's float type (float32 up to a group width of
1,040, see quant.int8_tiles), then one weighting product by 2**plane. The
plane sums are integers of at most 127 times the group width, and every
partial weighted sum stays at most 127*127 times it, so both are exact in
any order and the result reproduces the int8 reference product bit for
bit: the event path is a lossless re-encoding, not an approximation. The
module also counts events (the nonzero spikes) to report how much of the
dense multiply-accumulate work the sparsity skips.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .quant import QuantizedBlockMatrix, QuantizedGroupActivation, int8_tiles

NUM_PLANES = 7
_PLANE_SHIFTS = np.arange(NUM_PLANES, dtype=np.int8)[:, None, None]  # plane j holds bit j
_PLANE_WEIGHTS = 2.0 ** np.arange(NUM_PLANES)
# weight columns per stacked-plane GEMM in spike_matmul, whose (7n, COL_SLICE)
# product is its largest temporary. Picked by measurement of spike_matmul at
# 64 x 1024 and 64 x 256 (groups of 128) over 128, 256, 512 and unsliced: 128
# was slowest, the others within noise, and 256 holds the least of those
# (unsliced adds 1.25 MiB at 64 x 1024)
COL_SLICE = 256


@dataclass
class SpikeTrain:
    """7 signed spike planes, with the group scales carried along so the
    train alone can drive a matmul."""

    planes: np.ndarray  # int8 in {-1, 0, 1}, (7, n, d); a nonzero entry has the code's sign
    scales: np.ndarray  # float64, (n, n_groups)
    group_size: int
    max_units = 127  # the largest |code| the planes encode (see quant.int8_tiles)

    @property
    def shape(self) -> tuple[int, int]:
        return self.planes.shape[1:]


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
    """Expand int8 codes into signed spike planes. Exactly invertible."""
    codes = qa.codes
    if codes.min(initial=0) < -127 or codes.max(initial=0) > 127:
        raise ValueError("codes outside [-127, 127] cannot be spike-encoded")
    planes = np.abs(codes).astype(np.int8, copy=False) >> _PLANE_SHIFTS
    planes &= 1  # in place, as is the signing: a second (7, n, d) array raises peak RSS
    planes *= np.sign(codes).astype(np.int8, copy=False)
    return SpikeTrain(planes=planes, scales=qa.scales, group_size=qa.group_size)


def spike_decode(train: SpikeTrain) -> QuantizedGroupActivation:
    codes = (train.planes << _PLANE_SHIFTS).sum(axis=0, dtype=np.int8)
    return QuantizedGroupActivation(codes=codes, scales=train.scales, group_size=train.group_size)


def firing_rate(trains) -> float:
    """Fired fraction of plane slots (nonzero spikes of either sign), over
    one train or several."""
    if isinstance(trains, SpikeTrain):
        trains = [trains]
    fired = 0
    total = 0
    for train in trains:
        fired += int(np.count_nonzero(train.planes))
        total += train.planes.size  # 7 * element count
    if total == 0:
        return 0.0
    return fired / total


def spike_matmul(train: SpikeTrain, w: QuantizedBlockMatrix) -> tuple[np.ndarray, OpCountReport]:
    """Event-driven product of a spike train with block-quantized weights.

    Per activation group, the signed {-1,0,1} planes, stacked as one
    (7n, width) matrix, take one GEMM with each slice of at most COL_SLICE
    columns of the weight band, exact in the band's float type; one product
    with 2**plane then weights the seven plane sums, so the group's sum
    equals the int8 product. The groups run through the same int8_tiles loop
    as int8_matmul_reference, which makes the whole result bit-identical to
    it.
    """
    n = train.shape[0]

    def tile_product(rows: slice, w_band: np.ndarray) -> np.ndarray:
        width, m = w_band.shape
        stacked = train.planes[:, :, rows].astype(w_band.dtype).reshape(NUM_PLANES * n, width)
        weights = _PLANE_WEIGHTS.astype(w_band.dtype)
        acc = np.empty((n, m), dtype=w_band.dtype)
        for c in range(0, m, COL_SLICE):
            cols = min(COL_SLICE, m - c)
            sums = stacked @ w_band[:, c : c + cols]  # rows j*n .. (j+1)*n: plane j
            acc[:, c : c + cols] = (weights @ sums.reshape(NUM_PLANES, n * cols)).reshape(n, cols)
            del sums  # else the next slice's GEMM runs while this one is held
        return acc

    out = int8_tiles(train, w, tile_product)
    m = w.codes.shape[1]
    fired_bits = int(np.count_nonzero(train.planes))
    dense_macs = train.planes[0].size * m
    add_events = fired_bits * m  # each fired bit adds one weight row into m columns
    report = OpCountReport(
        add_events=add_events,
        skipped_events=NUM_PLANES * dense_macs - add_events,
        dense_mac_equivalent=dense_macs,
    )
    return out, report
