"""Deterministic binary container for named float64 arrays plus JSON metadata.

Layout:

    bytes 0..7     magic  b"MGENCKPT"
    bytes 8..11    format version, uint32 little-endian
    bytes 12..19   header length in bytes, uint64 little-endian
    header         UTF-8 JSON, sorted keys:
                   {"meta": {...}, "arrays": [{"name", "shape", "offset",
                    "nbytes"}, ...]}
    payload        the arrays' raw bytes, little-endian float64, C order,
                   concatenated in header order

Identical inputs produce identical bytes (no timestamps, no compression),
which is what makes same-seed reruns byte-comparable.
"""

from __future__ import annotations

import json
import math
import struct
from pathlib import Path

import numpy as np

from .artifacts import SchemaError, parse, require, write

MAGIC = b"MGENCKPT"
FORMAT_VERSION = 1


def pack_arrays(arrays: dict[str, np.ndarray], meta: dict | None = None) -> bytes:
    """Serialize named arrays (converted to float64) and JSON metadata."""
    index = []
    payload = bytearray()
    for name in sorted(arrays):
        # np.ascontiguousarray would promote 0-d arrays to 1-d; asarray keeps them.
        arr = np.asarray(arrays[name], dtype="<f8", order="C")
        raw = arr.tobytes()
        index.append(
            {
                "name": name,
                "shape": list(arr.shape),
                "offset": len(payload),
                "nbytes": len(raw),
            }
        )
        payload += raw
    header = json.dumps(
        {"meta": meta or {}, "arrays": index}, sort_keys=True, separators=(",", ":")
    ).encode("utf-8")
    return (
        MAGIC
        + struct.pack("<I", FORMAT_VERSION)
        + struct.pack("<Q", len(header))
        + header
        + bytes(payload)
    )


def unpack_arrays(data: bytes) -> tuple[dict[str, np.ndarray], dict]:
    """Inverse of :func:`pack_arrays`. The arrays are views of ``data``,
    read-only when it is ``bytes``: a caller that keeps one copies it."""
    if len(data) < 20 or data[:8] != MAGIC:
        raise SchemaError("not an array container (bad magic)")
    (version,) = struct.unpack_from("<I", data, 8)
    if version != FORMAT_VERSION:
        raise SchemaError(f"unsupported container version {version}")
    (header_len,) = struct.unpack_from("<Q", data, 12)
    header_end = 20 + header_len
    if header_end > len(data):
        raise SchemaError("truncated container header")
    header = parse(data[20:header_end])
    meta = require(header, "meta", dict) if "meta" in header else {}
    arrays: dict[str, np.ndarray] = {}
    for position, entry in enumerate(require(header, "arrays", list[dict])):
        name, shape, start, nbytes = _checked_entry(entry, position, len(data) - header_end)
        if name in arrays:
            raise SchemaError(f"duplicate array {name!r}")
        arr = np.frombuffer(data, dtype="<f8", count=nbytes // 8, offset=header_end + start)
        try:
            arrays[name] = arr.reshape(shape)
        except ValueError as exc:  # more dimensions than numpy supports
            raise SchemaError(f"array {name!r}: {exc}") from exc
    return arrays, meta


def _checked_entry(entry: dict, position: int, payload_size: int) -> tuple[str, list, int, int]:
    """An index entry's (name, shape, offset, nbytes), validated against the payload."""
    where = f"arrays[{position}]."
    name = require(entry, "name", str, where)
    shape = require(entry, "shape", list[int], where)
    start, nbytes = require(entry, "offset", int, where), require(entry, "nbytes", int, where)
    if min(shape + [start, nbytes]) < 0:
        raise SchemaError(f"array {name!r} has a negative shape, offset or size")
    if nbytes != 8 * math.prod(shape):
        raise SchemaError(
            f"array {name!r}: shape {shape} does not match its {nbytes} bytes"
        )
    if start + nbytes > payload_size:
        raise SchemaError(f"truncated payload for array {name!r}")
    return name, shape, start, nbytes


def save_arrays(path: str | Path, arrays: dict[str, np.ndarray], meta: dict | None = None) -> None:
    write(Path(path), pack_arrays(arrays, meta))


def load_arrays(path: str | Path) -> tuple[dict[str, np.ndarray], dict]:
    return unpack_arrays(Path(path).read_bytes())
