"""RCOL1: one self-describing buffer of numpy columns.

:func:`pack_columns` lays a ``{name: ndarray}`` dict out as a single
contiguous buffer, and :func:`unpack_columns` reads it back as
zero-copy views.  The segmented pdns store
(:mod:`repro.pdns.segments`) frames both blocks of every ``.pdnsseg``
file this way, so a reader maps the file and never deserialises a
column.
"""

from __future__ import annotations

import json
import struct
from typing import Dict, List

import numpy as np

from repro.core.artifact_store import CorruptArtifact

__all__ = ["pack_columns", "unpack_columns"]

_PACK_MAGIC = b"RCOL1\n"
_ALIGN = 8


def _aligned(offset: int) -> int:
    return (offset + _ALIGN - 1) // _ALIGN * _ALIGN


def pack_columns(columns: Dict[str, np.ndarray]) -> bytes:
    """Pack a column dict into one contiguous self-describing buffer.

    Layout: magic, a uint64 header length, a JSON header listing each
    array's key/dtype/shape and byte-offset *relative to the aligned
    payload base* (so the header text never feeds back into the
    offsets), then the raw array bytes, each 8-byte aligned.
    :func:`unpack_columns` reads the arrays back as zero-copy views
    over the buffer.
    """
    entries: List[Dict[str, object]] = []
    blobs: List[bytes] = []
    cursor = 0
    for key in sorted(columns):
        array = np.ascontiguousarray(columns[key])
        cursor = _aligned(cursor)
        entries.append({
            "key": key,
            "dtype": array.dtype.str,
            "shape": list(array.shape),
            "nbytes": int(array.nbytes),
            "offset": cursor,
        })
        blobs.append(array.tobytes())
        cursor += int(array.nbytes)
    header = json.dumps(entries, separators=(",", ":")).encode("utf-8")
    parts = [_PACK_MAGIC, struct.pack("<Q", len(header)), header]
    written = len(_PACK_MAGIC) + 8 + len(header)
    base = _aligned(written)
    if base != written:
        parts.append(b"\x00" * (base - written))
    payload_cursor = 0
    for entry, blob in zip(entries, blobs):
        target = int(entry["offset"])  # type: ignore[arg-type]
        if target != payload_cursor:
            parts.append(b"\x00" * (target - payload_cursor))
            payload_cursor = target
        parts.append(blob)
        payload_cursor += len(blob)
    return b"".join(parts)


def unpack_columns(buffer: "memoryview | bytes",
                   source: str = "<buffer>") -> Dict[str, np.ndarray]:
    """Read a :func:`pack_columns` buffer back into a column dict.

    The returned arrays are zero-copy views over ``buffer``: they stay
    valid only while the underlying memory (mapped file or bytes
    object) is alive.  Callers that outlive the buffer must copy.

    Raises :class:`~repro.core.artifact_store.CorruptArtifact` on any
    structural mismatch.
    """
    view = memoryview(buffer)
    if bytes(view[:len(_PACK_MAGIC)]) != _PACK_MAGIC:
        raise CorruptArtifact(f"{source}: not a packed column buffer")
    header_len = struct.unpack(
        "<Q", bytes(view[len(_PACK_MAGIC):len(_PACK_MAGIC) + 8]))[0]
    header_start = len(_PACK_MAGIC) + 8
    try:
        entries = json.loads(
            bytes(view[header_start:header_start + header_len])
            .decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as exc:
        raise CorruptArtifact(
            f"{source}: bad column-buffer header: {exc}") from exc
    base = _aligned(header_start + header_len)
    columns: Dict[str, np.ndarray] = {}
    for entry in entries:
        offset = base + int(entry["offset"])
        nbytes = int(entry["nbytes"])
        if offset + nbytes > len(view):
            raise CorruptArtifact(
                f"{source}: truncated column buffer "
                f"(need {offset + nbytes}, have {len(view)} bytes)")
        array = np.frombuffer(view[offset:offset + nbytes],
                              dtype=np.dtype(entry["dtype"]))
        columns[str(entry["key"])] = array.reshape(
            tuple(int(dim) for dim in entry["shape"]))
    return columns
