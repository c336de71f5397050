"""Symmetric INT8 quantization.

Weights are quantized per 128x128 block with a greedy clipping search:
every clip coefficient on a grid is tried and the one with the lowest
block MSE wins. Activations are quantized per 1x128 group with the group
max as the threshold (no clipping). Rounding is half-away-from-zero and
codes are clamped to [-127, 127], so magnitudes fit in 7 bits. Integer
products run as float32 GEMMs on the codes, or float64 ones for tiles
wider than 1,040 codes (see int8_tiles, which the 8-bit-float product in
fp8.py shares). Both are exact: a tile sum of at most 127*127*width is an
integer that the float type holds, and the int32 accumulator the format
promises bounds it far below 2**53.

The block matrix container (all little-endian): magic
``QBLKI8\\x00\\x00``, u32 nrows, u32 ncols, u32 block_rows, u32 block_cols,
f32 scales then f32 clips (row-major over the block grid), int8 codes
(row-major). It goes through tensorio's one binary writer and checked
reader, which reject a header that claims more bytes than the file holds
and bytes after the codes; the loader adds a positive block shape, finite
scales and clips, and no int8 code -128. The writer refuses a scale or clip
that float32 cannot hold finitely.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .tensor_ops import NumericsError, ShapeError, as_f64, ensure_finite
from .tensorio import _BinReader, _write_bin

BLOCK_MAGIC = b"QBLKI8\x00\x00"
DEFAULT_GROUP_SIZE = 128
DEFAULT_BLOCK_SHAPE = (DEFAULT_GROUP_SIZE, DEFAULT_GROUP_SIZE)
DEFAULT_CLIP_GRID = tuple(round(1.0 - 0.05 * i, 2) for i in range(11))  # 1.00 .. 0.50


def round_half_away(x: np.ndarray) -> np.ndarray:
    """Round to nearest integer, halves away from zero."""
    x = np.asarray(x)
    return np.sign(x) * np.floor(np.abs(x) + 0.5)


def _per_column(scales: np.ndarray, size: int, width: int) -> np.ndarray:
    """Per-tile scales along the last axis, each repeated over the `size`
    columns of its tile; the last tile may be partial, so `width` cuts (a
    tile wider than `width` is repeated only `width` times)."""
    return np.repeat(scales, min(size, width), axis=-1)[..., :width]


@dataclass
class QuantizedBlockMatrix:
    """Per-block symmetric INT8 weights.

    codes has the original matrix shape; scales, clips and mse are indexed
    by (block_row, block_col). Dequantized value = code * scale.
    """

    codes: np.ndarray  # int8
    scales: np.ndarray  # float64, (n_block_rows, n_block_cols)
    clips: np.ndarray  # chosen clip coefficient per block
    mse: np.ndarray  # quantization MSE per block
    block_shape: tuple[int, int]

    @property
    def shape(self) -> tuple[int, int]:
        return self.codes.shape

    def dequantize(self) -> np.ndarray:
        rs, cs = self.block_shape
        nrows, ncols = self.codes.shape
        out = self.codes.astype(np.float64)
        col_scales = _per_column(self.scales, cs, ncols)  # (n_block_rows, ncols)
        whole = nrows // rs
        blocks = out[: whole * rs].reshape(whole, rs, ncols)  # a view of the whole block rows
        blocks *= col_scales[:whole, None]
        out[whole * rs :] *= col_scales[whole:]  # the partial last block row, if any
        return out


@dataclass
class QuantizedGroupActivation:
    """Per-row group-scaled activation codes: a value is decode(code) times
    the scale of its row and group. The INT8 coding decodes a code to itself;
    other codings (see fp8.Fp8GroupActivation) override only `decode`."""

    codes: np.ndarray  # (n, d)
    scales: np.ndarray  # float64, (n, n_groups)
    group_size: int
    max_units = 127  # the largest |decoded code|, in the units a tile sum counts (see int8_tiles)

    @staticmethod
    def decode(codes: np.ndarray) -> np.ndarray:
        """Codes as float64 values, in a new array."""
        return codes.astype(np.float64)

    @property
    def shape(self) -> tuple[int, int]:
        return self.codes.shape

    def dequantize(self) -> np.ndarray:
        out = self.decode(self.codes)  # a new array, scaled in place
        out *= _per_column(self.scales, self.group_size, self.codes.shape[1])
        return out


def encode_groups(x, group_size: int, qmax: float, encode, dtype, caller: str):
    """The per-row group layout of the activation codings: each row of x is
    cut into groups of group_size columns, a group's scale is its max
    magnitude over qmax (1 for an all-zero group), and encode maps the
    scaled group to codes of type dtype. Returns (codes, scales)."""
    x = as_f64(x)
    if x.ndim != 2:
        raise ShapeError(f"activations must be 2-D, got shape {x.shape}")
    ensure_finite(x, caller)
    if group_size < 1:
        raise ValueError(f"group size must be >= 1, got {group_size}")
    d = x.shape[1]
    # a group wider than x is one group; an integer step keeps arange integral
    amax = np.maximum.reduceat(np.abs(x), np.arange(0, d, min(group_size, max(d, 1))), axis=1)
    scales = np.where(amax == 0.0, 1.0, amax / qmax)
    scaled = _per_column(scales, group_size, d)
    np.divide(x, scaled, out=scaled)  # in place: each full-size temporary raises peak RSS
    codes = encode(scaled).astype(dtype, copy=False)
    return codes, scales


def _clamp_round(x: np.ndarray) -> np.ndarray:
    return np.clip(round_half_away(x), -127, 127).astype(np.int8)


def clip_grid_desc(grid) -> list[float]:
    """The clip coefficients, largest first, so that a tie keeps the larger
    c; an empty grid or a coefficient outside (0, 1] raises ValueError."""
    if len(grid) == 0:
        raise ValueError("clip grid is empty")
    for c in grid:
        if not 0.0 < c <= 1.0:
            raise ValueError(f"clip coefficients must lie in (0, 1], got {c}")
    return sorted(grid, reverse=True)


def quantize_weight_blocks(
    w,
    grid: tuple[float, ...] = DEFAULT_CLIP_GRID,
    block_shape: tuple[int, int] = DEFAULT_BLOCK_SHAPE,
) -> QuantizedBlockMatrix:
    """Blockwise INT8 with greedy clip search.

    Per block, each clip coefficient c in the grid gives scale =
    c * max|block| / 127; the c with the smallest reconstruction MSE wins,
    ties going to the larger c. An all-zero block stores zeros at scale 1.
    A block whose MSE overflows float64 at every c raises NumericsError.
    """
    w = as_f64(w)
    if w.ndim != 2:
        raise ShapeError(f"weights must be 2-D, got shape {w.shape}")
    if w.size == 0:
        raise ValueError(f"weights have no elements, shape {w.shape}")
    ensure_finite(w, "quantize_weight_blocks")
    grid_desc = clip_grid_desc(grid)
    rs, cs = block_shape
    if rs < 1 or cs < 1:
        raise ValueError(f"block shape must be positive, got {block_shape}")
    nbr = (w.shape[0] + rs - 1) // rs
    nbc = (w.shape[1] + cs - 1) // cs
    codes = np.zeros(w.shape, dtype=np.int8)
    scales = np.ones((nbr, nbc))
    clips = np.ones((nbr, nbc))
    mse = np.zeros((nbr, nbc))
    for br, r0 in enumerate(range(0, w.shape[0], rs)):
        for bc, c0 in enumerate(range(0, w.shape[1], cs)):
            block = w[r0 : r0 + rs, c0 : c0 + cs]
            amax = np.max(np.abs(block))
            if amax == 0.0:
                continue  # zero block: keep scale 1, zero codes
            best = None
            for c in grid_desc:
                scale = c * amax / 127.0
                cand = _clamp_round(block / scale)
                with np.errstate(over="ignore"):  # an error past float64 reads inf and loses
                    err = float(np.mean((cand.astype(np.float64) * scale - block) ** 2))
                if best is None or err < best[0]:
                    best = (err, c, scale, cand)
            if best[0] == np.inf:
                raise NumericsError(
                    f"block ({br}, {bc}) with max |w| = {amax:.6g}: its squared quantization "
                    "error overflows float64 at every clip coefficient"
                )
            mse[br, bc], clips[br, bc], scales[br, bc], block_codes = best
            codes[r0 : r0 + rs, c0 : c0 + cs] = block_codes
    return QuantizedBlockMatrix(codes=codes, scales=scales, clips=clips, mse=mse, block_shape=block_shape)


def quantize_activation_groups(x, group_size: int = DEFAULT_GROUP_SIZE) -> QuantizedGroupActivation:
    """Groupwise INT8 along the feature axis; scale = max|group| / 127."""
    codes, scales = encode_groups(
        x, group_size, 127.0, _clamp_round, np.int8, "quantize_activation_groups"
    )
    return QuantizedGroupActivation(codes=codes, scales=scales, group_size=group_size)


def int8_tiles(a, w: QuantizedBlockMatrix, tile_product) -> np.ndarray:
    """The group loop of the INT8, spike and 8-bit-float paths. For group g,
    tile_product(rows, w_band) returns a new array in w_band's dtype: a's
    decoded codes in columns `rows` times the band w.codes[rows].

    Its sums are integers of units (2**-9 for 8-bit floats) of magnitude at
    most a.max_units * 127 * width. Below 2**24 units the band is float32,
    which holds every such integer, else float64, which holds them far past
    any tile the int32 guard admits; either way the GEMM returns the sums
    exactly in any order. Each sum goes back to float64 before both scales
    are applied, and groups are summed in ascending order, so paths whose
    products agree give bit-identical results. The format's accumulator is
    int32: a tiling whose widest tile (127*127 times its width) could
    overflow it is rejected with ValueError. A result past float64 raises
    NumericsError, once for all three paths.
    """
    if a.group_size != w.block_shape[0]:
        raise ShapeError(
            f"activation group size {a.group_size} != weight block rows {w.block_shape[0]}"
        )
    if a.shape[1] != w.codes.shape[0]:
        raise ShapeError(f"inner dims disagree: {a.shape} @ {w.codes.shape}")
    rs, cs = w.block_shape
    width = min(rs, a.shape[1])  # the widest tile
    if 127 * 127 * width > 2**31 - 1:
        raise ValueError(f"a tile {width} codes wide can overflow int32: 127*127*{width} > 2**31 - 1")
    dtype = np.float32 if a.max_units * 127 * width < 2**24 else np.float64
    ncols = w.codes.shape[1]
    out = np.zeros((a.shape[0], ncols))
    with np.errstate(over="ignore", invalid="ignore"):  # a sum past float64 is reported below
        for g in range(a.scales.shape[1]):
            rows = slice(g * rs, (g + 1) * rs)
            acc = tile_product(rows, w.codes[rows].astype(dtype)).astype(np.float64, copy=False)
            acc *= a.scales[:, g : g + 1]  # in place: a full-size temporary per group costs time
            acc *= _per_column(w.scales[g], cs, ncols)
            out += acc
    return ensure_finite(out, "int8_tiles")


def int8_matmul_reference(a: QuantizedGroupActivation, w: QuantizedBlockMatrix) -> np.ndarray:
    """Integer-exact reference product: GEMMs on the codes through
    int8_tiles, whose fixed order the event-driven path reproduces."""
    return int8_tiles(a, w, lambda rows, w_band: a.codes[:, rows].astype(w_band.dtype) @ w_band)


def _finite_f32(path, values: np.ndarray) -> np.ndarray:
    """Scales or clips as little-endian float32; one that float32 cannot
    hold finitely (1e100, say) would load as an infinity, so it is refused."""
    with np.errstate(over="ignore"):  # the overflow is reported below
        out = values.astype("<f4")
    if not np.isfinite(out).all():
        raise ValueError(f"{path}: a scale or clip is not finite in float32")
    return out


def save_block_matrix(path, qw: QuantizedBlockMatrix) -> None:
    _write_bin(path, BLOCK_MAGIC, [*qw.codes.shape, *qw.block_shape],
               _finite_f32(path, qw.scales), _finite_f32(path, qw.clips), qw.codes.astype("<i1"))


def load_block_matrix(path) -> QuantizedBlockMatrix:
    r = _BinReader(path, BLOCK_MAGIC)
    nrows, ncols, rs, cs = r.take("<u4", 4).tolist()
    if rs < 1 or cs < 1:
        raise r.error(f"block shape {(rs, cs)} in the header is not positive")
    grid = ((nrows + rs - 1) // rs, (ncols + cs - 1) // cs)
    scales, clips = r.take("<f4", 2 * math.prod(grid)).astype(np.float64).reshape(2, *grid)
    # a NaN or an infinity would dequantize to non-finite values
    if not (np.isfinite(scales).all() and np.isfinite(clips).all()):
        raise r.error("a scale or clip is not finite")
    codes = r.take("<i1", nrows * ncols)
    r.end()
    # a -128 code breaks the 7-plane spike coding and the int32 accumulator bound
    if codes.min(initial=0) < -127:
        raise r.error("a code of -128 lies outside [-127, 127]")
    codes = codes.astype(np.int8).reshape(nrows, ncols)
    return QuantizedBlockMatrix(codes, scales, clips, mse=np.zeros(grid), block_shape=(rs, cs))
