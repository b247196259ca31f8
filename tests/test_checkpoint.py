"""Checkpoint container: bitwise round trip in each parameter's own dtype,
and rejection of corrupt, truncated, malformed or non-finite files with
``CheckpointError``."""

import json
import struct

import numpy as np
import pytest

from domaingate.checkpoint import CheckpointError, load_checkpoint, save_checkpoint

PARAMS = {"b.vec": np.array([1.5, -0.0, np.pi]),
          "a.mat": np.random.default_rng(0).normal(size=(3, 4)),
          "a.emb": np.random.default_rng(1).random((2, 3), dtype=np.float32) - 0.5,
          "c.scalar": np.array(2.0)}
META = {"kind": "csda-dirichlet", "k": 4}


@pytest.fixture
def saved(tmp_path):
    path = tmp_path / "ckpt.bin"
    save_checkpoint(path, PARAMS, META)
    return path


def test_round_trip_is_bitwise(saved, tmp_path):
    params, meta = load_checkpoint(saved)
    assert meta == META
    assert sorted(params) == sorted(PARAMS)
    for name, arr in PARAMS.items():
        assert params[name].shape == arr.shape
        assert params[name].dtype == arr.dtype, name
        assert params[name].tobytes() == arr.tobytes()
    again = tmp_path / "again.bin"
    save_checkpoint(again, params, meta)
    assert again.read_bytes() == saved.read_bytes()


def _rewrite(path, raw):
    path.write_bytes(raw)
    return path


def test_bad_magic_rejected(saved):
    raw = saved.read_bytes()
    with pytest.raises(CheckpointError, match="bad magic"):
        load_checkpoint(_rewrite(saved, b"XXCKPT" + raw[6:]))


def test_bad_version_rejected(saved):
    # Version 1 stored every parameter as float64; it has no reader.
    raw = saved.read_bytes()
    for version in (1, 9):
        with pytest.raises(CheckpointError, match=f"version {version}"):
            load_checkpoint(_rewrite(saved, raw[:6] + bytes([version]) + raw[7:]))


@pytest.mark.parametrize("keep", [6, 10, 40])
def test_truncated_header_rejected(saved, keep):
    raw = saved.read_bytes()
    with pytest.raises(CheckpointError, match="truncated header"):
        load_checkpoint(_rewrite(saved, raw[:keep]))


def test_truncated_payload_rejected(saved):
    raw = saved.read_bytes()
    (header_len,) = struct.unpack("<I", raw[8:12])
    assert len(raw) > 12 + header_len + 8
    with pytest.raises(CheckpointError, match="truncated payload"):
        load_checkpoint(_rewrite(saved, raw[:-8]))


def test_non_finite_payload_rejected_naming_parameter(tmp_path):
    path = tmp_path / "nan.bin"
    save_checkpoint(path, {**PARAMS, "b.vec": np.array([1.5, np.nan, 2.0])}, META)
    with pytest.raises(CheckpointError, match="'b.vec'"):
        load_checkpoint(path)


@pytest.mark.parametrize("header, names", [
    ([], "'params'"),
    ({"meta": {}}, "'params'"),
    ({"params": {}}, "'meta'"),
    ({"params": {"w": {"shape": [2]}}, "meta": {}}, "'w' has bad offset None"),
    ({"params": {"w": {"shape": [2], "offset": -8}}, "meta": {}}, "'w' has bad offset -8"),
    ({"params": {"w": {"shape": [-1], "offset": 0}}, "meta": {}},
     r"'w' has bad shape \[-1\]"),
    ({"params": {"w": {"shape": [2], "offset": 0}}, "meta": {}}, "'w' has bad dtype None"),
    ({"params": {"w": {"dtype": "<i8", "shape": [2], "offset": 0}}, "meta": {}},
     "'w' has bad dtype '<i8'"),
    ({"params": {"w": {"dtype": "<f2", "shape": [2], "offset": 0}}, "meta": {}},
     "'w' has bad dtype '<f2'"),
    ({"params": {"w": {"dtype": ">f4", "shape": [2], "offset": 0}}, "meta": {}},
     "'w' has bad dtype '>f4'"),
    # 2**80 elements: a count that wraps at int64 would read as 0.
    ({"params": {"w": {"dtype": "<f8", "shape": [2**40, 2**40], "offset": 0}}, "meta": {}},
     "truncated payload at 'w'"),
])
def test_malformed_header_rejected_naming_field(tmp_path, header, names):
    raw = json.dumps(header).encode("utf-8")
    path = tmp_path / "crafted.bin"
    path.write_bytes(b"DGCKPT" + bytes([2, 0]) + struct.pack("<I", len(raw)) + raw
                     + np.arange(2.0).tobytes())
    with pytest.raises(CheckpointError, match=names):
        load_checkpoint(path)
