"""Immutable on-disk columnar segments for the passive-DNS store.

One segment holds a batch of deduplicated rpDNS rows — ``(name, type,
rdata)`` identity triples with their exact first-seen day — as packed
numpy columns plus small **prefilters** that let the query layer skip
the segment without opening its payload.  Segments are the unit of the
LSM-flavoured :class:`repro.pdns.store.SegmentedPdnsStore`: every
ingested day becomes one segment, compaction k-way-merges segments
into bigger ones, and queries union only the segments whose prefilters
match.

On-disk layout
--------------
::

    #repro-pdnsseg1\\n                 magic line
    {"days":[...],"filters_bytes":N,  one-line JSON header: the exact
     "filters_sha256":...,             day list the segment accounts,
     "n_names":...,"n_rows":...,       row/name counts, and length +
     "payload_bytes":N,                checksum of each block
     "payload_sha256":...,"version":1}\\n
    <filters block>                   pack_columns: sorted uint64
                                      hash arrays (names, rdata,
                                      zones, RR triples)
    <payload block>                   pack_columns: string pools +
                                      row columns

The file is a :mod:`repro.core.container` frame and both blocks are
RCOL1 column buffers, so a reader maps the file and reads every array
as a **zero-copy view** — no per-row Python objects exist until a query
materialises its (few) matching rows.  The filters block is tiny and
loaded eagerly at open; the payload block is mapped lazily on first
data access and its checksum verified exactly once per open.

Determinism
-----------
:func:`build_segment_bytes` is a pure function of its logical content:
rows are ordered by :func:`repro.core.records.rr_sort_key`, string
pools are derived from that order, the day pool is sorted, and the
JSON header is canonical.  Merging the same row set grouped or ordered
any way therefore produces **byte-identical** segments — the
compaction determinism contract
(``tests/pdns/test_store.py`` pins it).

Corruption
----------
Every structural defect raises
:class:`repro.core.container.FormatError` naming the offending path:
bad magic, a bad, truncated or wrongly shaped header (including a
``days`` field that is not a non-empty list of strings), wrong
version, short file (length check against the header at open), filter
or payload checksum mismatch, and undecodable blocks.  The store layer
decides whether that is fatal (default) or skip-with-report.
"""

from __future__ import annotations

import hashlib
import mmap
import os
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.core.container import (FormatError, check_block, pack_columns,
                                  read_header, unpack_columns, write_frame)
from repro.core.interning import (RRTYPE_BY_CODE, RRTYPE_CODES,
                                  decode_string_pool, encode_string_pool)
from repro.core.names import parent
from repro.core.records import RpDnsEntry, RRKey, rr_sort_key

__all__ = ["SEGMENT_MAGIC", "SEGMENT_SUFFIX", "SEGMENT_VERSION",
           "Segment", "SegmentMeta", "build_segment_bytes", "hash64",
           "hash_rr_key", "open_segment", "zone_ancestors"]

SEGMENT_MAGIC = b"#repro-pdnsseg1\n"
SEGMENT_VERSION = 1

#: File suffix of published segments (the store's ArtifactStore suffix).
SEGMENT_SUFFIX = ".pdnsseg"

_HASH_SEPARATOR = b"\x00"


def hash64(text: str) -> int:
    """Deterministic 64-bit hash of ``text`` (blake2b, process-stable).

    Python's builtin ``hash`` is salted per process, so prefilters
    must use a keyless cryptographic hash: equal strings hash equal in
    every session that ever reads the segment.
    """
    return int.from_bytes(
        hashlib.blake2b(text.encode("utf-8"), digest_size=8).digest(),
        "little")


def hash_rr_key(key: RRKey) -> int:
    """64-bit hash of one RR identity triple (name, type, rdata)."""
    name, qtype, rdata = key
    blob = (name.encode("utf-8") + _HASH_SEPARATOR
            + qtype.value.encode("utf-8") + _HASH_SEPARATOR
            + rdata.encode("utf-8"))
    return int.from_bytes(
        hashlib.blake2b(blob, digest_size=8).digest(), "little")


def zone_ancestors(name: str) -> List[str]:
    """Every proper ancestor zone of ``name`` (``a.b.c`` -> b.c, c)."""
    zones: List[str] = []
    ancestor = parent(name)
    while ancestor is not None:
        zones.append(ancestor)
        ancestor = parent(ancestor)
    return zones


def _sorted_hash_array(hashes: Sequence[int]) -> np.ndarray:
    array = np.array(sorted(set(hashes)), dtype=np.uint64)
    return array


def _pool_string(blob: np.ndarray, offsets: np.ndarray, index: int) -> str:
    """Decode one pooled string without touching the rest of the blob."""
    start = int(offsets[index])
    end = int(offsets[index + 1])
    return blob[start:end].tobytes().decode("utf-8")


# -- writing -----------------------------------------------------------


def build_segment_bytes(rows: Mapping[RRKey, str],
                        days: Optional[Sequence[str]] = None) -> bytes:
    """Serialise ``rows`` (RR key -> first-seen day) to one segment.

    ``days`` may list *every* day the segment accounts for, including
    days that contributed zero new rows (the store preserves the
    in-memory database's per-day ledger exactly); it defaults to the
    distinct row days.  Output bytes are a pure function of
    ``(rows, days)`` — any iteration order, any merge grouping.
    """
    day_pool: List[str] = sorted(set(days) if days is not None
                                 else set(rows.values()))
    day_ids: Dict[str, int] = {day: index
                               for index, day in enumerate(day_pool)}
    for key, day in rows.items():
        if day not in day_ids:
            raise ValueError(
                f"row day {day!r} missing from the segment day list")

    ordered = sorted(rows.items(), key=lambda item: rr_sort_key(item[0]))
    name_ids: Dict[str, int] = {}
    names: List[str] = []
    rdata_ids: Dict[str, int] = {}
    rdatas: List[str] = []
    row_name_ids = np.empty(len(ordered), dtype=np.int32)
    row_qtypes = np.empty(len(ordered), dtype=np.int16)
    row_rdata_ids = np.empty(len(ordered), dtype=np.int32)
    row_day_ids = np.empty(len(ordered), dtype=np.int32)
    rr_hashes: List[int] = []
    for row, ((name, qtype, rdata), day) in enumerate(ordered):
        nid = name_ids.get(name)
        if nid is None:
            nid = len(names)
            name_ids[name] = nid
            names.append(name)
        rid = rdata_ids.get(rdata)
        if rid is None:
            rid = len(rdatas)
            rdata_ids[rdata] = rid
            rdatas.append(rdata)
        row_name_ids[row] = nid
        row_qtypes[row] = RRTYPE_CODES[qtype]
        row_rdata_ids[row] = rid
        row_day_ids[row] = day_ids[day]
        rr_hashes.append(hash_rr_key((name, qtype, rdata)))

    name_hash_by_id = np.array([hash64(name) for name in names],
                               dtype=np.uint64)
    rdata_hash_by_id = np.array([hash64(rdata) for rdata in rdatas],
                                dtype=np.uint64)
    zone_hashes: List[int] = []
    for name in names:
        zone_hashes.extend(hash64(zone) for zone in zone_ancestors(name))

    names_blob, names_offsets = encode_string_pool(names)
    rdata_blob, rdata_offsets = encode_string_pool(rdatas)
    days_blob, days_offsets = encode_string_pool(day_pool)
    payload = pack_columns({
        "names_blob": names_blob,
        "names_offsets": names_offsets,
        "name_hash_by_id": name_hash_by_id,
        "rdata_blob": rdata_blob,
        "rdata_offsets": rdata_offsets,
        "rdata_hash_by_id": rdata_hash_by_id,
        "days_blob": days_blob,
        "days_offsets": days_offsets,
        "row_name_ids": row_name_ids,
        "row_qtypes": row_qtypes,
        "row_rdata_ids": row_rdata_ids,
        "row_day_ids": row_day_ids,
    })
    filters = pack_columns({
        "name_hashes": _sorted_hash_array(name_hash_by_id.tolist()),
        "rdata_hashes": _sorted_hash_array(rdata_hash_by_id.tolist()),
        "zone_hashes": _sorted_hash_array(zone_hashes),
        "rr_hashes": _sorted_hash_array(rr_hashes),
    })
    return write_frame(SEGMENT_MAGIC,
                       {"days": day_pool, "n_names": len(names),
                        "n_rows": len(ordered), "version": SEGMENT_VERSION},
                       {"filters": filters, "payload": payload})


# -- reading -----------------------------------------------------------


class SegmentMeta:
    """Header-level facts about one segment (no payload required)."""

    __slots__ = ("days", "n_names", "n_rows", "payload_sha256",
                 "filters_bytes", "payload_bytes")

    def __init__(self, days: List[str], n_names: int, n_rows: int,
                 payload_sha256: str, filters_bytes: int,
                 payload_bytes: int) -> None:
        self.days = days
        self.n_names = n_names
        self.n_rows = n_rows
        self.payload_sha256 = payload_sha256
        self.filters_bytes = filters_bytes
        self.payload_bytes = payload_bytes

    @property
    def days_first(self) -> str:
        return self.days[0]

    @property
    def days_last(self) -> str:
        return self.days[-1]


class Segment:
    """One opened segment: eager prefilters, lazy zero-copy payload.

    Opening reads and validates the header and the (small) filter
    block only; the payload is mapped on first data access, its
    checksum verified exactly once, and every column read back as a
    zero-copy view over the mapping.  :meth:`release` drops the cached
    views so a store can bound how many segments stay resident.
    """

    def __init__(self, path: str, meta: SegmentMeta,
                 filters: Dict[str, np.ndarray],
                 payload_start: int) -> None:
        self.path = path
        self.meta = meta
        self._filters = filters
        self._payload_start = payload_start
        self._mmap: Optional[mmap.mmap] = None
        self._columns: Optional[Dict[str, np.ndarray]] = None
        self._name_list: Optional[List[str]] = None

    # -- prefilters (no payload access) --------------------------------

    def may_contain_name_hash(self, value: int) -> bool:
        return _sorted_member(self._filters["name_hashes"], value)

    def may_contain_rdata_hash(self, value: int) -> bool:
        return _sorted_member(self._filters["rdata_hashes"], value)

    def may_contain_zone_hash(self, value: int) -> bool:
        return _sorted_member(self._filters["zone_hashes"], value)

    def may_contain_rr_hash(self, value: int) -> bool:
        return _sorted_member(self._filters["rr_hashes"], value)

    def matching_rr_hashes(self, hashes: np.ndarray) -> np.ndarray:
        """Boolean mask over ``hashes``: possibly stored here?"""
        filter_hashes = self._filters["rr_hashes"]
        positions = np.searchsorted(filter_hashes, hashes)
        mask = positions < len(filter_hashes)
        mask[mask] = filter_hashes[positions[mask]] == hashes[mask]
        return mask

    # -- payload access ------------------------------------------------

    @property
    def resident(self) -> bool:
        """Is the payload currently mapped/cached?"""
        return self._columns is not None

    def columns(self) -> Dict[str, np.ndarray]:
        """The payload columns, mapped lazily and verified once."""
        if self._columns is None:
            self._columns = self._load_payload()
        return self._columns

    def _load_payload(self) -> Dict[str, np.ndarray]:
        try:
            with open(self.path, "rb") as handle:
                # The mapping holds the pages on its own; the opener fd
                # is only needed while creating it.
                mapping = mmap.mmap(handle.fileno(), 0,
                                    access=mmap.ACCESS_READ)
        except (OSError, ValueError) as exc:
            raise FormatError(
                f"{self.path}: cannot map segment payload: {exc}") from exc
        try:
            view = memoryview(mapping)[self._payload_start:]
            check_block(view, self.meta.payload_bytes,
                        self.meta.payload_sha256, "payload", self.path)
            columns = unpack_columns(view, source=self.path)
        except BaseException:
            _close_mapping(mapping)
            raise
        self._mmap = mapping
        return columns

    def release(self) -> None:
        """Drop the cached payload views (residency eviction)."""
        self._columns = None
        self._name_list = None
        mapping = self._mmap
        self._mmap = None
        if mapping is not None:
            _close_mapping(mapping)

    # -- row materialisation -------------------------------------------

    def _name_at(self, nid: int) -> str:
        columns = self.columns()
        return _pool_string(columns["names_blob"],
                            columns["names_offsets"], nid)

    def _rdata_at(self, rid: int) -> str:
        columns = self.columns()
        return _pool_string(columns["rdata_blob"],
                            columns["rdata_offsets"], rid)

    def _day_at(self, did: int) -> str:
        return self.meta.days[did]

    def _entries_at(self, row_indexes: np.ndarray) -> List[RpDnsEntry]:
        columns = self.columns()
        return [RpDnsEntry(
            qname=self._name_at(int(columns["row_name_ids"][row])),
            qtype=RRTYPE_BY_CODE[int(columns["row_qtypes"][row])],
            rdata=self._rdata_at(int(columns["row_rdata_ids"][row])),
            first_seen=self._day_at(int(columns["row_day_ids"][row])))
            for row in row_indexes.tolist()]

    def _name_ids_for(self, name: str) -> List[int]:
        """Dense name ids whose pooled string equals ``name`` exactly
        (hash candidates are confirmed against the decoded string)."""
        columns = self.columns()
        candidates = np.nonzero(
            columns["name_hash_by_id"] == np.uint64(hash64(name)))[0]
        return [int(nid) for nid in candidates.tolist()
                if self._name_at(int(nid)) == name]

    def entries_for_name(self, name: str) -> List[RpDnsEntry]:
        """Rows owned by ``name``, in canonical segment row order."""
        nids = self._name_ids_for(name)
        if not nids:
            return []
        columns = self.columns()
        mask = np.isin(columns["row_name_ids"],
                       np.array(nids, dtype=np.int32))
        return self._entries_at(np.nonzero(mask)[0])

    def entries_for_rdata(self, rdata: str) -> List[RpDnsEntry]:
        """Rows carrying ``rdata``, in canonical segment row order."""
        columns = self.columns()
        candidates = np.nonzero(
            columns["rdata_hash_by_id"] == np.uint64(hash64(rdata)))[0]
        rids = [int(rid) for rid in candidates.tolist()
                if self._rdata_at(int(rid)) == rdata]
        if not rids:
            return []
        mask = np.isin(columns["row_rdata_ids"],
                       np.array(rids, dtype=np.int32))
        return self._entries_at(np.nonzero(mask)[0])

    def first_seen_of(self, key: RRKey) -> Optional[str]:
        """First-seen day of ``key`` if this segment stores it."""
        name, qtype, rdata = key
        nids = self._name_ids_for(name)
        if not nids:
            return None
        columns = self.columns()
        qcode = RRTYPE_CODES[qtype]
        mask = np.isin(columns["row_name_ids"],
                       np.array(nids, dtype=np.int32))
        mask &= columns["row_qtypes"] == np.int16(qcode)
        for row in np.nonzero(mask)[0].tolist():
            if self._rdata_at(int(columns["row_rdata_ids"][row])) == rdata:
                return self._day_at(int(columns["row_day_ids"][row]))
        return None

    def names_list(self) -> List[str]:
        """All distinct names, id-ordered (decoded once, cached until
        :meth:`release`)."""
        if self._name_list is None:
            columns = self.columns()
            self._name_list = decode_string_pool(columns["names_blob"],
                                                 columns["names_offsets"])
        return self._name_list

    def names_under_zone(self, zone: str) -> List[str]:
        """Distinct stored names strictly below ``zone``, id order."""
        suffix = "." + zone
        return [name for name in self.names_list()
                if name.endswith(suffix)]

    def rr_items(self) -> Iterator[Tuple[RRKey, str]]:
        """Every (RR key, first-seen day) row, canonical order."""
        columns = self.columns()
        names = self.names_list()
        rdatas = decode_string_pool(columns["rdata_blob"],
                                    columns["rdata_offsets"])
        days = self.meta.days
        for nid, qcode, rid, did in zip(
                columns["row_name_ids"].tolist(),
                columns["row_qtypes"].tolist(),
                columns["row_rdata_ids"].tolist(),
                columns["row_day_ids"].tolist()):
            yield (names[nid], RRTYPE_BY_CODE[qcode], rdatas[rid]), days[did]

    def new_counts_by_day(self) -> Dict[str, int]:
        """First-seen rows per accounted day (zero-row days included)."""
        columns = self.columns()
        counts = np.bincount(columns["row_day_ids"],
                             minlength=len(self.meta.days))
        return {day: int(count)
                for day, count in zip(self.meta.days, counts.tolist())}


def _sorted_member(sorted_hashes: np.ndarray, value: int) -> bool:
    position = int(np.searchsorted(sorted_hashes, np.uint64(value)))
    return (position < len(sorted_hashes)
            and int(sorted_hashes[position]) == value)


def _close_mapping(mapping: mmap.mmap) -> None:
    try:
        mapping.close()
    except BufferError:
        # A view (a caller's array, or one an error traceback holds)
        # still exports the mapping; dropping our reference lets it die
        # with the last view.
        pass


def open_segment(path: str) -> Segment:
    """Open one segment: validate header + filters, defer the payload.

    Raises :class:`~repro.core.container.FormatError` naming ``path``
    on bad magic, a bad, truncated or wrongly shaped header,
    unsupported version, short file, or a filter-block checksum
    mismatch.  Payload corruption surfaces (also as
    :class:`~repro.core.container.FormatError`) on first data access.
    """
    try:
        with open(path, "rb") as handle:
            header, (filters_bytes, payload_bytes) = read_header(
                handle, SEGMENT_MAGIC, SEGMENT_VERSION,
                ("filters", "payload"), os.fstat(handle.fileno()).st_size,
                path)
            filters_start = handle.tell()
            filters_blob = handle.read(filters_bytes)
    except OSError as exc:
        raise FormatError(f"{path}: cannot read segment: {exc}") from exc
    check_block(filters_blob, filters_bytes, header.get("filters_sha256"),
                "filters", path)
    days = header.get("days")
    if (not isinstance(days, list) or not days
            or not all(isinstance(day, str) for day in days)):
        raise FormatError(f"{path}: segment header days {days!r} is not "
                          "a non-empty list of strings")
    try:
        meta = SegmentMeta(days=days, n_names=int(header["n_names"]),
                           n_rows=int(header["n_rows"]),
                           payload_sha256=str(header["payload_sha256"]),
                           filters_bytes=filters_bytes,
                           payload_bytes=payload_bytes)
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(
            f"{path}: segment header missing fields: {exc}") from exc
    filters = unpack_columns(filters_blob, source=path)
    for required in ("name_hashes", "rdata_hashes", "zone_hashes",
                     "rr_hashes"):
        if required not in filters:
            raise FormatError(
                f"{path}: segment filter block missing {required!r}")
    return Segment(path=path, meta=meta, filters=filters,
                   payload_start=filters_start + filters_bytes)
