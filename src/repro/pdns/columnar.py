"""fpDNS-v2: binary columnar persistence for fpDNS days.

The authors processed 60-145 GB/day of *compressed text* records
offline (PAPER Section IV); our gzip-TSV format (:mod:`repro.pdns.io`)
mirrors that, and it is exactly why warm sessions were slow: loading a
cached day re-parsed every line, re-built millions of
:class:`~repro.core.records.FpDnsEntry` tuples and re-interned every
qname — only for :func:`~repro.core.interning.build_day_digest` to
tear them straight back down into the numpy columns the mining
pipeline actually consumes.  Following the columnar-storage lesson of
the Dremel/Hail-style analytics systems in PAPERS.md, fpDNS-v2 stores
the **columns themselves**: a warm load is disk -> numpy -> digest,
with zero entry materialisation and no re-interning.

On-disk layout
--------------
One :mod:`repro.core.container` frame with a single block::

    #repro-fpdns2\\n                       magic line
    {"day":...,"payload_bytes":N,         one-line JSON header: day
     "payload_sha256":...,                 label, payload length and
     "version":2}\\n                       checksum, format version
    <payload>                             RCOL1 column buffer

The payload holds the :meth:`~repro.core.interning.DayDigest.to_columns`
arrays — the interned name pool (``names_blob``/``names_offsets``),
the RR identity table over a deduplicated rdata pool, and one array
per stream field — plus the *extra-rdata* columns
(``below_xrdata_ids``/``above_xrdata_ids`` over ``xrdata_blob``):
rdata strings carried by non-answer rows, which the digest proper
drops but exact entry round-trip requires.  A warm load reads every
column as a zero-copy view over the loaded bytes.  The header's
``payload_bytes``/``payload_sha256`` make truncation and corruption
detectable before a column is read; any defect raises
:class:`~repro.core.container.FormatError`, which the artifact cache
treats as a miss.

Compatibility
-------------
Version 1 wrapped the same columns in an npz archive.  Its artifacts
now fail the version check, so the cache re-simulates such a day once
and overwrites the blob under the same key.

:class:`ColumnarFpDnsDataset` is a drop-in
:class:`~repro.core.records.FpDnsDataset`: ``below``/``above`` are
lazy views that materialise the legacy entry lists on first access, so
every per-entry consumer keeps working; digest-native consumers call
:func:`repro.core.interning.digest_of` and never trigger it.  Absent
``client_id``/``ttl`` are encoded as ``-1`` (the digest convention),
so datasets carrying *negative* client ids or TTLs — which neither the
simulator nor the TSV loader produce — are not representable.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from repro.core.container import (FormatError, pack_columns, read_frame,
                                  unpack_columns, write_frame)
from repro.core.dnstypes import RCode
from repro.core.interning import (RRTYPE_BY_CODE, DayDigest,
                                  build_day_digest, decode_string_pool,
                                  encode_string_pool)
from repro.core.records import FpDnsDataset, FpDnsEntry

__all__ = ["FPDNS2_MAGIC", "FPDNS2_VERSION", "ColumnarFpDnsDataset",
           "dumps_fpdns2", "loads_fpdns2", "save_fpdns2", "load_fpdns2"]

FPDNS2_MAGIC = b"#repro-fpdns2\n"
FPDNS2_VERSION = 2

PathLike = Union[str, Path]

_RCODE_BY_VALUE: Dict[int, RCode] = {member.value: member
                                     for member in RCode}

#: ``(below_xrdata_ids, above_xrdata_ids, xrdata_strings)`` — rdata of
#: non-answer rows, pooled; ids are ``-1`` where the row has none.
_XRdata = Tuple[np.ndarray, np.ndarray, List[str]]


class ColumnarFpDnsDataset(FpDnsDataset):
    """An fpDNS day backed by columns instead of entry lists.

    Carries the deserialised :class:`~repro.core.interning.DayDigest`
    (via :meth:`day_digest`); ``below``/``above`` materialise the
    legacy :class:`~repro.core.records.FpDnsEntry` lists only when a
    per-entry consumer actually reads them.
    """

    def __init__(self, day: str, digest: DayDigest,
                 xrdata: _XRdata) -> None:
        # Deliberately not calling the dataclass __init__: ``below`` /
        # ``above`` are lazy properties here, not list fields.
        self.day = day
        self._digest = digest
        self._xrdata = xrdata
        self._below_entries: Optional[List[FpDnsEntry]] = None
        self._above_entries: Optional[List[FpDnsEntry]] = None

    def day_digest(self) -> DayDigest:
        """The columnar digest — free, already deserialised."""
        return self._digest

    @property
    def below(self) -> List[FpDnsEntry]:  # type: ignore[override]
        if self._below_entries is None:
            self._below_entries = _materialize_stream(
                self._digest, "below", self._xrdata[0], self._xrdata[2])
        return self._below_entries

    @property
    def above(self) -> List[FpDnsEntry]:  # type: ignore[override]
        if self._above_entries is None:
            self._above_entries = _materialize_stream(
                self._digest, "above", self._xrdata[1], self._xrdata[2])
        return self._above_entries

    def __eq__(self, other: object) -> bool:
        # The dataclass __eq__ requires identical classes; a columnar
        # day must also compare equal to its plain twin (the equality
        # tests' oracle), so compare by content against any dataset.
        if isinstance(other, FpDnsDataset):
            return (self.day == other.day and self.below == other.below
                    and self.above == other.above)
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        # Keep repr lazy too: volumes come from the digest columns.
        return (f"ColumnarFpDnsDataset(day={self.day!r}, "
                f"below={self._digest.below_volume()}, "
                f"above={self._digest.above_volume()})")


def _materialize_stream(digest: DayDigest, which: str,
                        xrdata_ids: np.ndarray,
                        xrdata_strings: List[str]) -> List[FpDnsEntry]:
    """Rebuild one stream's entry list from the columns (exact)."""
    stream = digest.below if which == "below" else digest.above
    names = digest.names.names
    rr_keys = digest.rr_keys
    rrtype_by_code = RRTYPE_BY_CODE
    rcode_by_value = _RCODE_BY_VALUE
    entries: List[FpDnsEntry] = []
    append = entries.append
    for ts, nid, rid, cid, rc, qt, ttl, xid in zip(
            stream.timestamps.tolist(), stream.name_ids.tolist(),
            stream.rr_ids.tolist(), stream.client_ids.tolist(),
            stream.rcodes.tolist(), stream.qtypes.tolist(),
            stream.ttls.tolist(), xrdata_ids.tolist()):
        if rid >= 0:
            rdata = rr_keys[rid][2]
        elif xid >= 0:
            rdata = xrdata_strings[xid]
        else:
            rdata = None
        append(FpDnsEntry(
            timestamp=ts,
            client_id=None if cid < 0 else cid,
            qname=names[nid],
            qtype=rrtype_by_code[qt],
            rcode=rcode_by_value[rc],
            ttl=None if ttl < 0 else ttl,
            rdata=rdata))
    return entries


def _extract_xrdata(dataset: FpDnsDataset, digest: DayDigest) -> _XRdata:
    """Pool the rdata of non-answer rows (rare; usually empty).

    Only rows whose RR id is ``-1`` can carry rdata the digest lost,
    so only those entries are touched.
    """
    strings: List[str] = []
    pool: Dict[str, int] = {}
    columns: List[np.ndarray] = []
    for entries, stream in ((dataset.below, digest.below),
                            (dataset.above, digest.above)):
        ids = np.full(len(stream), -1, dtype=np.int32)
        for row in np.nonzero(stream.rr_ids < 0)[0].tolist():
            rdata = entries[row].rdata
            if rdata is None:
                continue
            xid = pool.get(rdata)
            if xid is None:
                xid = len(strings)
                pool[rdata] = xid
                strings.append(rdata)
            ids[row] = xid
        columns.append(ids)
    return columns[0], columns[1], strings


def dumps_fpdns2(dataset: FpDnsDataset,
                 digest: Optional[DayDigest] = None) -> bytes:
    """Serialise one fpDNS day to the fpDNS-v2 binary columnar format.

    ``digest`` may be supplied when the caller already built the day's
    digest (the experiment context does); otherwise one is built here.
    Re-encoding a :class:`ColumnarFpDnsDataset` reuses its columns
    without materialising entries.
    """
    if isinstance(dataset, ColumnarFpDnsDataset):
        digest = dataset.day_digest()
        xrdata = dataset._xrdata
    else:
        if digest is None:
            digest = build_day_digest(dataset)
        xrdata = _extract_xrdata(dataset, digest)
    columns = digest.to_columns()
    columns["below_xrdata_ids"] = xrdata[0]
    columns["above_xrdata_ids"] = xrdata[1]
    xrdata_blob, xrdata_offsets = encode_string_pool(xrdata[2])
    columns["xrdata_blob"] = xrdata_blob
    columns["xrdata_offsets"] = xrdata_offsets
    return write_frame(FPDNS2_MAGIC,
                       {"day": digest.day, "version": FPDNS2_VERSION},
                       {"payload": pack_columns(columns)})


def loads_fpdns2(data: bytes,
                 source: str = "<bytes>") -> ColumnarFpDnsDataset:
    """Deserialise :func:`dumps_fpdns2` output (the warm path).

    The columns are zero-copy views over ``data``.  Raises
    :class:`~repro.core.container.FormatError` — naming ``source`` —
    on bad magic, unsupported version, truncation, checksum mismatch
    or undecodable columns; the artifact cache maps all of those to a
    miss.
    """
    header, (payload,) = read_frame(data, FPDNS2_MAGIC, FPDNS2_VERSION,
                                    ("payload",), source)
    day = header.get("day")
    if not isinstance(day, str):
        raise FormatError(f"{source}: fpDNS-v2 header missing day")
    columns = unpack_columns(payload, source)
    try:
        digest = DayDigest.from_columns(day, columns)
        xrdata = (columns["below_xrdata_ids"], columns["above_xrdata_ids"],
                  decode_string_pool(columns["xrdata_blob"],
                                     columns["xrdata_offsets"]))
    except (LookupError, TypeError, ValueError) as exc:
        raise FormatError(f"{source}: bad fpDNS-v2 payload: {exc}") from exc
    return ColumnarFpDnsDataset(day=day, digest=digest, xrdata=xrdata)


def save_fpdns2(dataset: FpDnsDataset, path: PathLike,
                digest: Optional[DayDigest] = None) -> int:
    """Write one fpDNS-v2 day to ``path``; returns the byte count."""
    data = dumps_fpdns2(dataset, digest)
    Path(path).write_bytes(data)
    return len(data)


def load_fpdns2(path: PathLike) -> ColumnarFpDnsDataset:
    """Load an fpDNS-v2 day written by :func:`save_fpdns2`."""
    return loads_fpdns2(Path(path).read_bytes(), source=str(path))
