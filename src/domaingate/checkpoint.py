"""Parameter checkpoint container.

Layout (version 1):

    bytes 0-5   magic ``DGCKPT``
    byte  6     format version (currently 1)
    byte  7     reserved, zero
    bytes 8-11  uint32 little-endian header length H
    bytes 12-(12+H)  UTF-8 JSON header
    remainder   concatenated little-endian float64 payloads, C order

The header maps each parameter name to its shape and byte offset into the
payload region, plus a ``meta`` object (for a CLI run, what its data
decide: k, labels, domains, vocabulary size and hash; and its best dev
accuracy). Writing is canonical (sorted names, sorted JSON keys) so
identical states serialize to identical bytes.

Every parameter is stored and loaded as float64. A float32 encoder
parameter survives the round trip exactly once ``encoder.to_param_dtype``
casts it back; a checkpoint written while the encoder ran in float64
loads rounded to float32.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path

import numpy as np

__all__ = ["save_checkpoint", "load_checkpoint", "CheckpointError"]

_MAGIC = b"DGCKPT"
_VERSION = 1


class CheckpointError(ValueError):
    pass


def save_checkpoint(path, params: dict[str, np.ndarray], meta: dict) -> None:
    entries = {}
    offset = 0
    names = sorted(params)
    for name in names:
        arr = np.asarray(params[name], dtype=np.float64, order="C")
        entries[name] = {"shape": list(arr.shape), "offset": offset}
        offset += arr.nbytes
    header = json.dumps({"params": entries, "meta": meta},
                        sort_keys=True, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(bytes([_VERSION, 0]))
        fh.write(struct.pack("<I", len(header)))
        fh.write(header)
        for name in names:
            arr = np.asarray(params[name], dtype=np.float64, order="C")
            fh.write(arr.astype("<f8", copy=False).tobytes())


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
        shape = entry.get("shape") if isinstance(entry, dict) else None
        start = entry.get("offset") if isinstance(entry, dict) else None
        if not (isinstance(shape, list) and all(type(n) is int and n >= 0 for n in shape)):
            raise CheckpointError(f"{path}: parameter {name!r} has bad shape {shape!r}")
        if not (type(start) is int and start >= 0):
            raise CheckpointError(f"{path}: parameter {name!r} has bad offset {start!r}")
        count = int(np.prod(shape)) if shape else 1
        if start + 8 * count > len(payload):
            raise CheckpointError(f"{path}: truncated payload at {name!r}")
        arr = np.frombuffer(payload, dtype="<f8", count=count, offset=start)
        if not np.isfinite(arr).all():
            raise CheckpointError(f"{path}: parameter {name!r} has non-finite values")
        params[name] = arr.astype(np.float64).reshape(shape).copy()
    return params, header["meta"]
