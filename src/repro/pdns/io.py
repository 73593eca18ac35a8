"""The gzip-TSV interchange format for fpDNS days.

A deployed collector writes its fpDNS stream to disk and the analysis
runs offline (the authors' datasets were 60-145 GB/day of compressed
records).  This module provides a compact, stream-friendly text
format: gzip-compressed TSV, one line per entry,
``side ts client qname qtype rcode ttl rdata`` with ``-`` for absent
fields, after a versioned header line.  Entries stream in either
direction without loading the whole day, and a day round-trips
exactly.

Every :class:`FormatError` names the offending file, so a corrupt
file is debuggable.  Blank lines *between* records are a format error
— an encoder that emits them is broken, and silently skipping them
would mask truncated-then-appended files; trailing blank lines at end
of file stay tolerated.

This text format is for interchange and serves as the oracle in
tests and the IO benchmark.  The artifact cache stores the binary
columnar sibling, fpDNS-v2 (:mod:`repro.pdns.columnar`), and the
on-disk pDNS-DB is the segmented store (:mod:`repro.pdns.store`).
"""

from __future__ import annotations

import gzip
from pathlib import Path
from typing import IO, Iterator, Union

from repro.core.container import FormatError
from repro.dns.message import RCode, RRType
from repro.pdns.records import FpDnsDataset, FpDnsEntry

__all__ = ["save_fpdns", "load_fpdns", "iter_fpdns_entries", "FormatError"]

_FPDNS_HEADER = "#repro-fpdns-v1"
_ABSENT = "-"

PathLike = Union[str, Path]


def _format_entry(side: str, entry: FpDnsEntry) -> str:
    client = _ABSENT if entry.client_id is None else str(entry.client_id)
    ttl = _ABSENT if entry.ttl is None else str(entry.ttl)
    rdata = _ABSENT if entry.rdata is None else entry.rdata
    # repr() is the shortest string that parses back to the same float
    # (exact round-trip): a loaded day must equal the written one.
    return "\t".join([side, repr(entry.timestamp), client, entry.qname,
                      entry.qtype.value, entry.rcode.name, ttl, rdata])


def _parse_entry(line: str, lineno: int, source: str) -> tuple:
    fields = line.rstrip("\n").split("\t")
    if len(fields) != 8:
        raise FormatError(f"{source}: line {lineno}: expected 8 fields, "
                          f"got {len(fields)}")
    side, ts, client, qname, qtype, rcode, ttl, rdata = fields
    if side not in ("B", "A"):
        raise FormatError(f"{source}: line {lineno}: bad side {side!r}")
    try:
        entry = FpDnsEntry(
            timestamp=float(ts),
            client_id=None if client == _ABSENT else int(client),
            qname=qname,
            qtype=RRType(qtype),
            rcode=RCode[rcode],
            ttl=None if ttl == _ABSENT else int(ttl),
            rdata=None if rdata == _ABSENT else rdata)
    except (ValueError, KeyError) as exc:
        raise FormatError(f"{source}: line {lineno}: {exc}") from exc
    return side, entry


def save_fpdns(dataset: FpDnsDataset, path: PathLike) -> int:
    """Write one fpDNS day to ``path`` (gzip TSV); returns line count."""
    count = 0
    with gzip.open(path, "wt", encoding="utf-8") as handle:
        handle.write(f"{_FPDNS_HEADER}\t{dataset.day}\n")
        for entry in dataset.below:
            handle.write(_format_entry("B", entry) + "\n")
            count += 1
        for entry in dataset.above:
            handle.write(_format_entry("A", entry) + "\n")
            count += 1
    return count


def _read_fpdns_header(handle: IO[str], source: str) -> str:
    header = handle.readline().rstrip("\n")
    if not header.startswith(_FPDNS_HEADER):
        raise FormatError(f"{source}: not an fpDNS file: "
                          f"header {header!r}")
    return header


def _iter_entries(handle: IO[str], source: str) -> Iterator[tuple]:
    """Yield ``(side, entry)`` from a handle positioned past the header."""
    pending_blank = 0
    for lineno, line in enumerate(handle, start=2):
        if not line.strip():
            # Tolerated only if nothing follows (trailing newline
            # noise); remembered so a later record makes it an error.
            if not pending_blank:
                pending_blank = lineno
            continue
        if pending_blank:
            raise FormatError(f"{source}: line {pending_blank}: blank "
                              "line between records")
        yield _parse_entry(line, lineno, source)


def iter_fpdns_entries(path: PathLike) -> Iterator[tuple]:
    """Stream ``(side, FpDnsEntry)`` pairs without loading the day."""
    with gzip.open(path, "rt", encoding="utf-8") as handle:
        _read_fpdns_header(handle, str(path))
        yield from _iter_entries(handle, str(path))


def load_fpdns(path: PathLike) -> FpDnsDataset:
    """Load a full fpDNS day written by :func:`save_fpdns`."""
    source = str(path)
    with gzip.open(path, "rt", encoding="utf-8") as handle:
        header = _read_fpdns_header(handle, source)
        parts = header.split("\t")
        dataset = FpDnsDataset(day=parts[1] if len(parts) > 1 else "unknown")
        below_append = dataset.below.append
        above_append = dataset.above.append
        for side, entry in _iter_entries(handle, source):
            if side == "B":
                below_append(entry)
            else:
                above_append(entry)
    return dataset
