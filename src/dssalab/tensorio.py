"""Tensor file formats for fixtures, and the one reader of JSON input.

JSON (small fixtures):
    {"shape": [...], "data": [...]}   with data flattened row-major
    (nested lists of the same size also load).

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


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite number {text}")
    return value


def read_json(path, build):
    """Parse the JSON object in the file at path and return build(obj).

    The one reader of JSON input; build only converts the parsed object.
    A structure build cannot take (a missing key, null where a number
    belongs, a scalar where a list belongs), text that is not JSON, a top
    level that is not an object, NaN or infinite numbers, bytes that are not
    UTF-8, and nesting too deep for the parser all raise ValueError naming
    the file.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
        obj = json.loads(text, parse_float=_finite_float, parse_constant=_finite_float)
        if not isinstance(obj, dict):
            raise TypeError(f"top level is a {type(obj).__name__}, not an object")
        return build(obj)
    except KeyError as exc:
        raise ValueError(f"malformed JSON file {path}: missing key {exc}") from None
    except (TypeError, ValueError, OverflowError, RecursionError) as exc:
        raise ValueError(f"malformed JSON file {path}: {exc}") from None


def json_list(obj: dict, key: str) -> list:
    """obj[key], which must be a JSON list; for the builders of read_json."""
    value = obj[key]
    if not isinstance(value, list):
        raise TypeError(f"{key!r} must be a list, got {value!r}")
    return value


def _tensor(obj: dict) -> np.ndarray:
    shape = json_list(obj, "shape")
    if not all(type(dim) is int and dim >= 0 for dim in shape):
        raise TypeError(f"shape must hold non-negative integers, got {shape}")
    data = np.asarray(obj["data"], dtype=np.float64)
    if math.prod(shape) != data.size:
        raise ValueError(f"shape {shape} does not match {data.size} values")
    return data.reshape(shape)


def load_tensor_json(path) -> np.ndarray:
    return ensure_finite(read_json(path, _tensor), f"tensor file {path}")


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
