"""Parameter checkpoint container.

Layout (version 2):

    bytes 0-5   magic ``DGCKPT``
    byte  6     format version (currently 2)
    byte  7     reserved, zero
    bytes 8-11  uint32 little-endian header length H
    bytes 12-(12+H)  UTF-8 JSON header
    remainder   concatenated little-endian payloads, C order

The header maps each parameter name to its ``dtype`` (``"<f4"`` or
``"<f8"``), shape and byte offset into the payload region, plus a
``meta`` object (for a CLI run, all else that describes it: its resolved
run ``config`` and what its data decide, k, labels, domains and, in word
mode, the vocabulary's tokens in id order). A float32 parameter is
stored and loaded as float32, any other as float64, so a model
round-trips bit for bit in its own dtypes. Writing is canonical (sorted
names, sorted JSON keys) so identical states serialize to identical
bytes.
"""

from __future__ import annotations

import json
import math
import struct
from pathlib import Path

import numpy as np

__all__ = ["save_checkpoint", "load_checkpoint", "CheckpointError"]

_MAGIC = b"DGCKPT"
_VERSION = 2
_DTYPES = {"<f4": np.float32, "<f8": np.float64}


class CheckpointError(ValueError):
    pass


def save_checkpoint(path, params: dict[str, np.ndarray], meta: dict) -> None:
    entries, arrays = {}, []
    offset = 0
    for name in sorted(params):
        arr = np.asarray(params[name])
        arr = arr.astype("<f4" if arr.dtype == np.float32 else "<f8", copy=False)
        entries[name] = {"dtype": arr.dtype.str, "shape": list(arr.shape), "offset": offset}
        arrays.append(arr)
        offset += arr.nbytes
    header = json.dumps({"params": entries, "meta": meta},
                        sort_keys=True, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(bytes([_VERSION, 0]))
        fh.write(struct.pack("<I", len(header)))
        fh.write(header)
        for arr in arrays:
            fh.write(arr.tobytes())


def load_checkpoint(path) -> tuple[dict[str, np.ndarray], dict]:
    raw = Path(path).read_bytes()
    if raw[:6] != _MAGIC:
        raise CheckpointError(f"{path}: not a checkpoint (bad magic)")
    if len(raw) < 12:
        raise CheckpointError(f"{path}: truncated header")
    version = raw[6]
    if version != _VERSION:
        raise CheckpointError(f"{path}: unsupported checkpoint version {version}")
    (header_len,) = struct.unpack("<I", raw[8:12])
    if len(raw) < 12 + header_len:
        raise CheckpointError(f"{path}: truncated header")
    try:
        header = json.loads(raw[12:12 + header_len].decode("utf-8"))
    except ValueError as exc:  # also covers UnicodeDecodeError
        raise CheckpointError(f"{path}: corrupt header: {exc}") from None
    for field in ("params", "meta"):
        if not isinstance(header, dict) or not isinstance(header.get(field), dict):
            raise CheckpointError(f"{path}: header has no {field!r} object")
    payload = raw[12 + header_len:]
    params = {}
    for name, entry in header["params"].items():
        entry = entry if isinstance(entry, dict) else {}
        shape, start, dtype = entry.get("shape"), entry.get("offset"), entry.get("dtype")
        if not (isinstance(shape, list) and all(type(n) is int and n >= 0 for n in shape)):
            raise CheckpointError(f"{path}: parameter {name!r} has bad shape {shape!r}")
        if not (type(start) is int and start >= 0):
            raise CheckpointError(f"{path}: parameter {name!r} has bad offset {start!r}")
        if not (isinstance(dtype, str) and dtype in _DTYPES):
            raise CheckpointError(f"{path}: parameter {name!r} has bad dtype {dtype!r}")
        count = math.prod(shape)
        if start + np.dtype(dtype).itemsize * count > len(payload):
            raise CheckpointError(f"{path}: truncated payload at {name!r}")
        arr = np.frombuffer(payload, dtype=dtype, count=count, offset=start)
        if not np.isfinite(arr).all():
            raise CheckpointError(f"{path}: parameter {name!r} has non-finite values")
        params[name] = arr.astype(_DTYPES[dtype]).reshape(shape)
    return params, header["meta"]
