"""Tensor file formats for fixtures.

JSON (small fixtures):
    {"shape": [...], "data": [...]}   with data flattened row-major.

Binary (larger fixtures):
    8-byte magic b"TNSRF32\\0", u32 rank, u32 dims[rank], then the payload
    as little-endian float32, row-major. Integers are little-endian.
"""

from __future__ import annotations

import json
import math
import struct
from pathlib import Path

import numpy as np

from .tensor_ops import ensure_finite

MAGIC = b"TNSRF32\x00"


def save_tensor_json(path, x) -> None:
    x = np.asarray(x, dtype=np.float64)
    payload = {"shape": list(x.shape), "data": x.reshape(-1).tolist()}
    Path(path).write_text(json.dumps(payload))


def load_tensor_json(path) -> np.ndarray:
    payload = json.loads(Path(path).read_text())
    shape = payload["shape"]
    data = np.asarray(payload["data"], dtype=np.float64)
    if int(np.prod(shape)) != data.size:
        raise ValueError(f"shape {shape} does not match {data.size} values")
    return ensure_finite(data.reshape(shape), f"tensor file {path}")


def save_tensor_bin(path, x) -> None:
    x = np.asarray(x, dtype=np.float32)
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<I", x.ndim))
        f.write(struct.pack(f"<{x.ndim}I", *x.shape))
        f.write(x.astype("<f4").tobytes())


def load_tensor_bin(path) -> np.ndarray:
    raw = Path(path).read_bytes()
    if raw[:8] != MAGIC:
        raise ValueError(f"bad magic in {path}")
    if len(raw) < 12:
        raise ValueError(f"truncated header in {path}")
    (rank,) = struct.unpack_from("<I", raw, 8)
    if len(raw) < 12 + 4 * rank:
        raise ValueError(f"truncated header in {path}: rank {rank} needs {4 * rank} bytes of dims")
    dims = struct.unpack_from(f"<{rank}I", raw, 12)
    if len(raw) - (12 + 4 * rank) != 4 * math.prod(dims):
        raise ValueError(f"payload size mismatch in {path}")
    data = np.frombuffer(raw, dtype="<f4", offset=12 + 4 * rank)
    out = data.reshape(dims).astype(np.float64)
    return ensure_finite(out, f"tensor file {path}")


def load_tensor(path) -> np.ndarray:
    """Dispatch on file content: binary magic first, JSON otherwise."""
    path = Path(path)
    with open(path, "rb") as f:
        head = f.read(8)
    if head == MAGIC:
        return load_tensor_bin(path)
    return load_tensor_json(path)
