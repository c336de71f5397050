"""Tensor file formats for fixtures, the one reader of JSON input, and the
one reader and writer of the binary formats.

JSON (small fixtures):
    {"shape": [...], "data": [...]}   with data flattened row-major
    (nested lists of the same size also load).

Binary (larger fixtures):
    8-byte magic b"TNSRF32\\0", u32 rank, u32 dims[rank], then the payload
    as little-endian float32, row-major. Integers are little-endian.

This binary file and quant's INT8 block container share one layout
(magic, u32 header, payload arrays), one writer (_write_bin) and one
checked reader (_BinReader).
"""

from __future__ import annotations

import json
import math
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


def json_number(value) -> float:
    """value as a float; it must be a JSON number (an int or a float, never a
    bool or a string); for the builders of read_json."""
    if type(value) not in (int, float):
        raise TypeError(f"expected a number, got {value!r}")
    return float(value)


def _tensor(obj: dict) -> np.ndarray:
    shape = json_list(obj, "shape")
    if not all(type(dim) is int and dim >= 0 for dim in shape):
        raise TypeError(f"shape must hold non-negative integers, got {shape}")
    data = np.asarray(obj["data"], dtype=object)
    if math.prod(shape) != data.size:
        raise ValueError(f"shape {shape} does not match {data.size} values")
    return np.fromiter(map(json_number, data.flat), np.float64, data.size).reshape(shape)


def load_tensor_json(path) -> np.ndarray:
    return ensure_finite(read_json(path, _tensor), f"tensor file {path}")


def _write_bin(path, magic: bytes, header, *arrays: np.ndarray) -> None:
    """Write magic, the header as little-endian u32, then each array's bytes."""
    parts = [magic, np.asarray(header, dtype="<u4").tobytes(), *(a.tobytes() for a in arrays)]
    Path(path).write_bytes(b"".join(parts))


class _BinReader:
    """Reads, in order, from a binary file that starts with magic. Each read is
    checked against the bytes left before it is sized; errors name the file."""

    def __init__(self, path, magic: bytes):
        self.path = path
        self.raw = Path(path).read_bytes()
        if self.raw[: len(magic)] != magic:
            raise self.error(f"does not start with the magic {magic!r}")
        self.pos = len(magic)

    def error(self, message: str) -> ValueError:
        return ValueError(f"{self.path}: {message}")

    def take(self, dtype, count: int) -> np.ndarray:
        """The next count values of dtype, as a read-only view; a u32 header
        field must go through .tolist() before it sizes anything."""
        size, left = np.dtype(dtype).itemsize * count, len(self.raw) - self.pos
        if size > left:
            raise self.error(f"truncated, a read of {size} bytes finds {left} left")
        out = np.frombuffer(self.raw, dtype=dtype, count=count, offset=self.pos)
        self.pos += size
        return out

    def end(self) -> None:
        """Reject bytes after the last read."""
        extra = len(self.raw) - self.pos
        if extra:
            raise self.error(f"{extra} bytes follow the last field")


def save_tensor_bin(path, x) -> None:
    x = np.asarray(x, dtype=np.float32)
    _write_bin(path, MAGIC, [x.ndim, *x.shape], x.astype("<f4"))


def load_tensor_bin(path) -> np.ndarray:
    r = _BinReader(path, MAGIC)
    (rank,) = r.take("<u4", 1).tolist()
    dims = r.take("<u4", rank).tolist()
    data = r.take("<f4", math.prod(dims))
    r.end()
    return ensure_finite(data.reshape(dims).astype(np.float64), f"tensor file {path}")


def load_tensor(path) -> np.ndarray:
    """Dispatch on file content: binary magic first, JSON otherwise."""
    path = Path(path)
    with open(path, "rb") as f:
        head = f.read(8)
    if head == MAGIC:
        return load_tensor_bin(path)
    return load_tensor_json(path)
