"""The one on-disk container of the repo's binary files.

Both binary formats — fpDNS-v2 days in the artifact cache
(:mod:`repro.pdns.columnar`) and ``.pdnsseg`` segments of the
passive-DNS store (:mod:`repro.pdns.segments`) — are *frames*: a magic
line, one canonical JSON header line (sorted keys; the format's own
fields plus ``<block>_bytes`` and ``<block>_sha256`` for every block),
then the blocks back to back.  Every block is an RCOL1 column buffer
(:func:`pack_columns`), which :func:`unpack_columns` reads back as
zero-copy views, so a reader loads or maps a file and never
deserialises a column.

Every structural defect of a frame or a column buffer raises
:class:`FormatError` naming the source; the artifact cache turns it
into a miss and the segmented store into a quarantined segment.
"""

from __future__ import annotations

import hashlib
import io
import json
import struct
from typing import IO, Any, Dict, List, Mapping, Sequence, Tuple

import numpy as np

__all__ = ["FormatError", "check_block", "pack_columns", "read_frame",
           "read_header", "unpack_columns", "write_frame"]

_PACK_MAGIC = b"RCOL1\n"
_ALIGN = 8


class FormatError(ValueError):
    """A file or buffer does not match its expected on-disk format."""


# -- frames ------------------------------------------------------------


def write_frame(magic: bytes, header: Mapping[str, object],
                blocks: Mapping[str, bytes]) -> bytes:
    """``magic``, the header line, then ``blocks`` in order.

    The file is built by a single join, so no block is copied twice.
    """
    fields = dict(header)
    for name, block in blocks.items():
        fields[f"{name}_bytes"] = len(block)
        fields[f"{name}_sha256"] = hashlib.sha256(block).hexdigest()
    line = json.dumps(fields, sort_keys=True,
                      separators=(",", ":")).encode("utf-8")
    return b"".join([magic, line, b"\n", *blocks.values()])


def read_header(handle: IO[bytes], magic: bytes, version: int,
                names: Sequence[str], size: int, source: str
                ) -> Tuple[Dict[str, Any], List[int]]:
    """Header and block lengths of the ``size``-byte frame at ``handle``.

    Checks the magic, that the header line is a JSON object of
    ``version``, and that the lengths of blocks ``names`` are
    non-negative ints filling the rest of the frame.  Leaves ``handle``
    at the first block.
    """
    if handle.read(len(magic)) != magic:
        raise FormatError(f"{source}: bad magic (not a "
                          f"{magic.decode('ascii').strip()} file)")
    line = handle.readline()
    if not line.endswith(b"\n"):
        raise FormatError(f"{source}: truncated header")
    try:
        header = json.loads(line.decode("utf-8"))
    except ValueError as exc:
        raise FormatError(f"{source}: bad header: {exc}") from exc
    if not isinstance(header, dict):
        raise FormatError(f"{source}: bad header: not a JSON object")
    if header.get("version") != version:
        raise FormatError(f"{source}: unsupported version "
                          f"{header.get('version')!r} (expected {version})")
    lengths = [header.get(f"{name}_bytes") for name in names]
    for name, length in zip(names, lengths):
        if (not isinstance(length, int) or isinstance(length, bool)
                or length < 0):
            raise FormatError(f"{source}: bad header: {name}_bytes "
                              f"{length!r} is not a non-negative int")
    available = size - handle.tell()
    if sum(lengths) != available:
        raise FormatError(f"{source}: truncated or padded frame "
                          f"({available} of {sum(lengths)} block bytes)")
    return header, lengths


def check_block(block: "bytes | memoryview", length: int, sha256: object,
                name: str, source: str) -> None:
    """Check one block against its declared length and SHA-256."""
    if len(block) != length:
        raise FormatError(f"{source}: truncated {name} block "
                          f"({len(block)} of {length} bytes)")
    if hashlib.sha256(block).hexdigest() != sha256:
        raise FormatError(f"{source}: {name} block checksum mismatch")


def read_frame(data: bytes, magic: bytes, version: int,
               names: Sequence[str], source: str
               ) -> Tuple[Dict[str, Any], List[memoryview]]:
    """Check a whole in-memory frame: its header, and its checked
    blocks as zero-copy views over ``data``."""
    handle = io.BytesIO(data)
    header, lengths = read_header(handle, magic, version, names, len(data),
                                  source)
    view = memoryview(data)
    start = handle.tell()
    blocks: List[memoryview] = []
    for name, length in zip(names, lengths):
        block = view[start:start + length]
        check_block(block, length, header.get(f"{name}_sha256"), name,
                    source)
        blocks.append(block)
        start += length
    return header, blocks


# -- RCOL1 column buffers ----------------------------------------------


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
    placed: List[Tuple[int, np.ndarray]] = []
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
        placed.append((cursor, array))
        cursor += int(array.nbytes)
    header = json.dumps(entries, separators=(",", ":")).encode("utf-8")
    # The join reads each array through the buffer protocol, so column
    # bytes are copied once, not twice.
    parts: List[Any] = [_PACK_MAGIC, struct.pack("<Q", len(header)), header]
    written = len(_PACK_MAGIC) + 8 + len(header)
    base = _aligned(written)
    if base != written:
        parts.append(b"\x00" * (base - written))
    payload_cursor = 0
    for target, array in placed:
        if target != payload_cursor:
            parts.append(b"\x00" * (target - payload_cursor))
        parts.append(array)
        payload_cursor = target + int(array.nbytes)
    return b"".join(parts)


def unpack_columns(buffer: "memoryview | bytes",
                   source: str = "<buffer>") -> Dict[str, np.ndarray]:
    """Read a :func:`pack_columns` buffer back into a column dict.

    The returned arrays are zero-copy views over ``buffer``: they stay
    valid only while the underlying memory (mapped file or bytes
    object) is alive.  Callers that outlive the buffer must copy.

    Raises :class:`FormatError` naming ``source`` on any structural
    mismatch, including a column header of the wrong shape.
    """
    view = memoryview(buffer)
    header_start = len(_PACK_MAGIC) + 8
    if bytes(view[:len(_PACK_MAGIC)]) != _PACK_MAGIC:
        raise FormatError(f"{source}: not a packed column buffer")
    if len(view) < header_start:
        raise FormatError(f"{source}: truncated column buffer")
    header_len = struct.unpack(
        "<Q", bytes(view[len(_PACK_MAGIC):header_start]))[0]
    try:
        entries = json.loads(
            bytes(view[header_start:header_start + header_len])
            .decode("utf-8"))
    except ValueError as exc:
        raise FormatError(
            f"{source}: bad column-buffer header: {exc}") from exc
    if not isinstance(entries, list):
        raise FormatError(
            f"{source}: bad column-buffer header: not a JSON list")
    base = _aligned(header_start + header_len)
    columns: Dict[str, np.ndarray] = {}
    for entry in entries:
        try:
            start = base + int(entry["offset"])
            stop = start + int(entry["nbytes"])
            if not base <= start <= stop <= len(view):
                raise ValueError(f"truncated column buffer (column bytes "
                                 f"{start}..{stop} of {len(view)})")
            columns[str(entry["key"])] = np.frombuffer(
                view[start:stop], dtype=np.dtype(entry["dtype"])
            ).reshape([int(dim) for dim in entry["shape"]])
        except (KeyError, TypeError, ValueError) as exc:
            raise FormatError(
                f"{source}: bad column entry {entry!r}: {exc}") from exc
    return columns
