from __future__ import annotations

import struct

import numpy as np
import pytest

from dssalab.tensorio import (
    MAGIC,
    load_tensor,
    load_tensor_bin,
    load_tensor_json,
    save_tensor_bin,
    save_tensor_json,
)


def test_json_roundtrip(tmp_path):
    x = np.arange(12.0).reshape(3, 4)
    path = tmp_path / "t.json"
    save_tensor_json(path, x)
    assert np.array_equal(load_tensor_json(path), x)
    assert np.array_equal(load_tensor(path), x)
    # nested data loads too
    path.write_text('{"shape": [3, 4], "data": %s}' % x.tolist())
    assert np.array_equal(load_tensor_json(path), x)


def test_bin_roundtrip_and_header(tmp_path):
    rng = np.random.default_rng(0)
    x = rng.standard_normal((2, 3, 4)).astype(np.float32)
    path = tmp_path / "t.bin"
    save_tensor_bin(path, x)
    raw = path.read_bytes()
    assert raw[:8] == MAGIC
    got = load_tensor_bin(path)
    assert got.shape == (2, 3, 4)
    assert np.array_equal(got, x.astype(np.float64))
    assert np.array_equal(load_tensor(path), got)


def test_bin_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"NOTMAGIC" + b"\x00" * 16)
    with pytest.raises(ValueError):
        load_tensor_bin(path)
    # truncated files: rank cut off, dims cut off, payload one value short
    good = tmp_path / "good.bin"
    save_tensor_bin(good, np.ones((3, 4)))
    raw = good.read_bytes()
    for cut in (0, 7, 8, 10, 12, 16, len(raw) - 4, len(raw) - 1):
        path.write_bytes(raw[:cut])
        with pytest.raises(ValueError, match="bad.bin"):
            load_tensor_bin(path)
    # a byte appended, and headers that claim more than the file holds:
    # rank 2**32 - 1, and 2**32 - 1 x 2**32 - 1 dims over 16 payload bytes
    for blob in (raw + b"\x00", MAGIC + struct.pack("<I", 2**32 - 1) + b"\x00" * 16,
                 MAGIC + struct.pack("<3I", 2, 2**32 - 1, 2**32 - 1) + b"\x00" * 16):
        path.write_bytes(blob)
        with pytest.raises(ValueError, match="bad.bin"):
            load_tensor_bin(path)
    # a well-formed file under another magic
    path.write_bytes(b"X" + raw[1:])
    with pytest.raises(ValueError, match="bad.bin: does not start with the magic"):
        load_tensor_bin(path)


def test_bin_format_is_pinned(tmp_path):
    path = tmp_path / "t.bin"
    save_tensor_bin(path, [[1.0, -2.0]])
    assert path.read_bytes() == (
        b"TNSRF32\x00" b"\x02\x00\x00\x00" b"\x01\x00\x00\x00\x02\x00\x00\x00"
        b"\x00\x00\x80\x3f" b"\x00\x00\x00\xc0"
    )
    assert np.array_equal(load_tensor_bin(path), [[1.0, -2.0]])


def test_json_rejects_shape_mismatch(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"shape": [2, 2], "data": [1.0, 2.0, 3.0]}')
    with pytest.raises(ValueError):
        load_tensor_json(path)
    # malformed structure: text shape, fractional, boolean or negative dim,
    # no object at the top, missing data
    for text in ('{"shape": "ab", "data": [1.0, 2.0]}', '{"shape": [2, 2.5], "data": [1, 2, 3, 4, 5]}',
                 '{"shape": [true, 2], "data": [1.0, 2.0]}', '{"shape": [-1], "data": []}',
                 "[1, 2]", '{"shape": [2]}', '{"shape": [2], "data": [true, 1.5]}',
                 '{"shape": [2], "data": [1.0, "1.5"]}', '{"shape": [1, 2], "data": [[1.0, false]]}'):
        path.write_text(text)
        with pytest.raises(ValueError, match="bad.json"):
            load_tensor_json(path)
