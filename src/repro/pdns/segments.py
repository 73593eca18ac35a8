"""Immutable on-disk columnar segments for the passive-DNS store.

One segment holds a batch of deduplicated rpDNS rows — ``(name, type,
rdata)`` identity triples with their exact first-seen day — as packed
numpy columns plus small **prefilters** that let the query layer skip
the segment without opening its payload.  Segments are the unit of the
LSM-flavoured :class:`repro.pdns.store.SegmentedPdnsStore`: every
ingested day becomes one segment, compaction merges segments into
bigger ones over their columns (:func:`merge_segments`), and queries
union only the segments whose prefilters match.

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
compaction determinism contract (``tests/pdns/test_store.py`` pins
it).  :func:`merge_segments` writes the same bytes as the row writer
over the rows a dict merge of its inputs collects, without decoding a
row or hashing a string again (``tests/pdns/test_store_properties.py``
holds it to that oracle).

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
from typing import (Dict, Iterator, List, Mapping, NamedTuple, Optional,
                    Sequence, Set, Tuple)

import numpy as np

from repro.core.container import (FormatError, check_block, pack_columns,
                                  read_header, unpack_columns, write_frame)
from repro.core.interning import (RRTYPE_BY_CODE, RRTYPE_CODES,
                                  decode_string_pool, encode_string_pool)
from repro.core.names import parent
from repro.core.records import RpDnsEntry, RRKey, rr_sort_key

__all__ = ["SEGMENT_MAGIC", "SEGMENT_SUFFIX", "SEGMENT_VERSION",
           "MergeInput", "Segment", "SegmentMeta", "build_segment_bytes",
           "hash64", "hash_rr_key", "merge_segments", "open_segment"]

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


def _pool_string(blob: np.ndarray, offsets: np.ndarray, index: int) -> str:
    """Decode one pooled string without touching the rest of the blob."""
    start = int(offsets[index])
    end = int(offsets[index + 1])
    return blob[start:end].tobytes().decode("utf-8")


#: Rank of each RR type code in :func:`~repro.core.records.rr_sort_key`
#: order, which sorts types by name.
_QTYPE_RANK = np.array(
    [sorted(member.value for member in RRTYPE_BY_CODE).index(member.value)
     for member in RRTYPE_BY_CODE], dtype=np.int64)

#: Bytes of each string in the fixed-width sort key of a pool merge.
#: Strings that tie on it and run longer are compared whole, so the
#: key's memory does not grow with the longest name in the store.
_KEY_BYTES = 32

#: Byte budget of one chunk of the index arrays that copy pool strings.
_CHUNK_BYTES = 1 << 20


# -- writing -----------------------------------------------------------


class _Pool(NamedTuple):
    """One string pool: UTF-8 ``blob``, ``len + 1`` byte ``offsets``,
    and the :func:`hash64` of every string."""

    blob: np.ndarray
    offsets: np.ndarray
    hashes: np.ndarray


class _Rows(NamedTuple):
    """Row columns in canonical order: pool ids, type codes, day ids."""

    name_ids: np.ndarray
    qtypes: np.ndarray
    rdata_ids: np.ndarray
    day_ids: np.ndarray


def _write_segment(day_pool: List[str], names: _Pool, rdatas: _Pool,
                   rows: _Rows, zone_hashes: np.ndarray,
                   rr_hashes: np.ndarray) -> bytes:
    """Frame one segment: pools, row columns and the four prefilters.

    Both builders end here, so the column set and its dtypes live in
    one place.  ``zone_hashes`` and ``rr_hashes`` may repeat and come
    in any order; the name and RDATA filters are the distinct hashes
    of the two pools.
    """
    days_blob, days_offsets = encode_string_pool(day_pool)
    payload = pack_columns({
        "names_blob": names.blob.astype(np.uint8, copy=False),
        "names_offsets": names.offsets.astype(np.int64, copy=False),
        "name_hash_by_id": names.hashes.astype(np.uint64, copy=False),
        "rdata_blob": rdatas.blob.astype(np.uint8, copy=False),
        "rdata_offsets": rdatas.offsets.astype(np.int64, copy=False),
        "rdata_hash_by_id": rdatas.hashes.astype(np.uint64, copy=False),
        "days_blob": days_blob,
        "days_offsets": days_offsets,
        "row_name_ids": rows.name_ids.astype(np.int32, copy=False),
        "row_qtypes": rows.qtypes.astype(np.int16, copy=False),
        "row_rdata_ids": rows.rdata_ids.astype(np.int32, copy=False),
        "row_day_ids": rows.day_ids.astype(np.int32, copy=False),
    })
    filters = pack_columns({
        "name_hashes": _distinct_hashes(names.hashes),
        "rdata_hashes": _distinct_hashes(rdatas.hashes),
        "zone_hashes": _distinct_hashes(zone_hashes),
        "rr_hashes": _distinct_hashes(rr_hashes),
    })
    return write_frame(SEGMENT_MAGIC,
                       {"days": day_pool, "n_names": len(names.hashes),
                        "n_rows": len(rows.name_ids),
                        "version": SEGMENT_VERSION},
                       {"filters": filters, "payload": payload})


def _distinct_hashes(hashes: np.ndarray) -> np.ndarray:
    ordered = np.sort(hashes.astype(np.uint64, copy=False))
    return ordered[_run_starts(ordered)]


def _run_starts(*columns: np.ndarray) -> np.ndarray:
    """Mask of the rows of sorted ``columns`` that differ from the row
    before them: the first row of each run of equal rows."""
    starts = np.zeros(len(columns[0]), dtype=bool)
    starts[:1] = True
    for column in columns:
        starts[1:] |= column[1:] != column[:-1]
    return starts


def _zone_hashes(names: Sequence[str]) -> np.ndarray:
    """:func:`hash64` of every proper ancestor zone of ``names``.

    Each distinct ancestor is hashed once: a name's walk stops at the
    first ancestor already hashed, because every zone above it was
    hashed in the same earlier walk.
    """
    seen: Set[str] = set()
    hashes: List[int] = []
    for name in names:
        zone = parent(name)
        while zone is not None and zone not in seen:
            seen.add(zone)
            hashes.append(hash64(zone))
            zone = parent(zone)
    return np.array(hashes, dtype=np.uint64)


def build_segment_bytes(rows: Mapping[RRKey, str],
                        days: Optional[Sequence[str]] = None,
                        rr_hashes: Optional[np.ndarray] = None) -> bytes:
    """Serialise ``rows`` (RR key -> first-seen day) to one segment.

    ``days`` may list *every* day the segment accounts for, including
    days that contributed zero new rows (the store preserves the
    in-memory database's per-day ledger exactly); it defaults to the
    distinct row days.  ``rr_hashes`` are the :func:`hash_rr_key`
    values of ``rows``' keys in any order, for a caller that already
    computed them; they are computed here when absent.  Output bytes
    are a pure function of ``(rows, days)`` — any iteration order, any
    merge grouping.
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
    if rr_hashes is None:
        rr_hashes = np.array([hash_rr_key(key) for key in rows],
                             dtype=np.uint64)

    name_hash_by_id = np.array([hash64(name) for name in names],
                               dtype=np.uint64)
    rdata_hash_by_id = np.array([hash64(rdata) for rdata in rdatas],
                                dtype=np.uint64)
    return _write_segment(
        day_pool, _Pool(*encode_string_pool(names), name_hash_by_id),
        _Pool(*encode_string_pool(rdatas), rdata_hash_by_id),
        _Rows(row_name_ids, row_qtypes, row_rdata_ids, row_day_ids),
        _zone_hashes(names), rr_hashes)


class MergeInput(NamedTuple):
    """One segment's day list, payload columns and prefilters, copied
    out of its mapping (:meth:`Segment.merge_input`), so the segment
    may be released while :func:`merge_segments` runs."""

    days: List[str]
    columns: Dict[str, np.ndarray]
    filters: Dict[str, np.ndarray]


class _MergedPool:
    """The distinct strings of several pools, ranked in string order.

    Strings are compared as UTF-8 bytes with the length as tiebreak,
    which is Python's string order and keeps strings that differ only
    by trailing NULs apart (fixed-width byte keys pad with NULs).  The
    sort key holds each string's first :data:`_KEY_BYTES` bytes; runs
    of strings that tie on it and run longer are re-sorted whole.
    """

    def __init__(self, pools: Sequence[_Pool]) -> None:
        counts = [len(pool.offsets) - 1 for pool in pools]
        blob_bases = np.cumsum([0] + [len(pool.blob) for pool in pools])
        self.blob = np.concatenate([pool.blob for pool in pools])
        self.starts = np.concatenate(
            [pool.offsets[:-1] + base for pool, base in zip(pools,
                                                            blob_bases)])
        self.lengths = np.concatenate(
            [np.diff(pool.offsets) for pool in pools])
        self.hashes = np.concatenate([pool.hashes for pool in pools])
        width = min(max(int(self.lengths.max(initial=0)), 1), _KEY_BYTES)
        keys = _padded_strings(self.blob, self.starts, self.lengths,
                               width).view(f"S{width}").ravel()
        order = np.lexsort((self.lengths, keys))
        keys = keys[order]
        lengths = self.lengths[order]
        distinct = _run_starts(keys, lengths)
        self._sort_ties_whole(order, distinct, _run_starts(keys),
                              lengths > width)
        rank = np.empty(len(order), dtype=np.int64)
        rank[order] = np.cumsum(distinct) - 1
        #: One entry holding each rank's string.
        self.first = order[distinct]
        bounds = np.cumsum([0] + counts)
        #: Per input pool: local string id -> global rank.
        self.ranks = [rank[begin:end]
                      for begin, end in zip(bounds[:-1], bounds[1:])]

    def _sort_ties_whole(self, order: np.ndarray, distinct: np.ndarray,
                         key_starts: np.ndarray,
                         truncated: np.ndarray) -> None:
        """Re-sort by their whole bytes the runs of ``order`` whose
        strings tie on the key and hold one longer than it, and mark
        which of their strings differ from the one before."""
        run_ids = np.cumsum(key_starts) - 1
        run_starts = np.flatnonzero(key_starts)
        run_ends = run_starts + np.bincount(run_ids,
                                            minlength=len(run_starts))
        has_long = np.bincount(run_ids, weights=truncated,
                               minlength=len(run_starts)) > 0
        tied = has_long & (run_ends - run_starts > 1)
        for low, high in zip(run_starts[tied].tolist(),
                             run_ends[tied].tolist()):
            members = order[low:high]
            strings = [self.blob[start:start + length].tobytes()
                       for start, length in zip(
                           self.starts[members].tolist(),
                           self.lengths[members].tolist())]
            by_bytes = sorted(range(high - low), key=strings.__getitem__)
            order[low:high] = members[by_bytes]
            distinct[low + 1:high] = [
                strings[this] != strings[before]
                for before, this in zip(by_bytes, by_bytes[1:])]

    def pool(self, ranks: np.ndarray) -> _Pool:
        """The pool holding the strings of ``ranks``, in that order."""
        entries = self.first[ranks]
        lengths = self.lengths[entries]
        offsets = np.zeros(len(entries) + 1, dtype=np.int64)
        np.cumsum(lengths, out=offsets[1:])
        blob = np.empty(int(offsets[-1]), dtype=np.uint8)
        starts = self.starts[entries]
        step = max(_CHUNK_BYTES // (8 * max(int(lengths.max(initial=0)),
                                            1)), 1)
        for begin in range(0, len(entries), step):
            end = min(begin + step, len(entries))
            low, high = int(offsets[begin]), int(offsets[end])
            shift = np.repeat(starts[begin:end] - offsets[begin:end],
                              lengths[begin:end])
            blob[low:high] = self.blob[shift + np.arange(low, high)]
        return _Pool(blob, offsets, self.hashes[entries])


def _padded_strings(blob: np.ndarray, starts: np.ndarray,
                    lengths: np.ndarray, width: int) -> np.ndarray:
    """The first ``width`` bytes of the strings at ``starts``, as rows
    of a NUL-padded uint8 matrix."""
    padded = np.concatenate([blob, np.zeros(width, dtype=np.uint8)])
    columns = np.arange(width)
    matrix = np.empty((len(starts), width), dtype=np.uint8)
    step = max(_CHUNK_BYTES // (8 * width), 1)
    for begin in range(0, len(starts), step):
        chunk = padded[starts[begin:begin + step, None] + columns]
        chunk[columns >= lengths[begin:begin + step, None]] = 0
        matrix[begin:begin + step] = chunk
    return matrix


def _first_appearance_ids(keys: np.ndarray
                          ) -> Tuple[np.ndarray, np.ndarray]:
    """Dense ids for ``keys`` numbered by first appearance, and the
    key each id stands for."""
    order = np.argsort(keys, kind="stable")
    starts = _run_starts(keys[order])
    first = order[starts]  # the stable sort puts each key's first row first
    by_first = np.argsort(first, kind="stable")
    id_of = np.empty(len(first), dtype=np.int64)
    id_of[by_first] = np.arange(len(first))
    ids = np.empty(len(keys), dtype=np.int64)
    ids[order] = id_of[np.cumsum(starts) - 1]
    return ids, keys[first[by_first]]


def merge_segments(inputs: Sequence[MergeInput]) -> bytes:
    """Merge segments into one over their columns; nothing is decoded
    or hashed again.

    The bytes equal :func:`build_segment_bytes` over the rows a dict
    merge of ``inputs`` collects — the first occurrence of each RR key
    in ``inputs`` order wins, as with ``dict.setdefault`` — and over
    the union of their day lists:

    * the name and RDATA pools merge as bytes into global string
      ranks, and each string keeps the hash its input stored;
    * the rows lexsort (stable) into ``rr_sort_key`` order, and the
      first row of each key is kept;
    * names and RDATA are renumbered by first appearance, as the row
      writer numbers them;
    * the zone and RR filters are the unions of the inputs' filters,
      because the merged name and key sets are the unions of theirs.
    """
    return _write_segment(*_merged_columns(inputs))


def _merged_columns(inputs: Sequence[MergeInput]
                    ) -> Tuple[List[str], _Pool, _Pool, _Rows, np.ndarray,
                               np.ndarray]:
    """The arguments of :func:`_write_segment` for a merge (its own
    frame, so the merged pools' working arrays are freed before
    packing)."""
    day_pool = sorted({day for merged in inputs for day in merged.days})
    day_index = {day: index for index, day in enumerate(day_pool)}
    names = _MergedPool([_Pool(merged.columns["names_blob"],
                               merged.columns["names_offsets"],
                               merged.columns["name_hash_by_id"])
                         for merged in inputs])
    rdatas = _MergedPool([_Pool(merged.columns["rdata_blob"],
                                merged.columns["rdata_offsets"],
                                merged.columns["rdata_hash_by_id"])
                          for merged in inputs])
    name_keys = np.concatenate(
        [ranks[merged.columns["row_name_ids"]]
         for ranks, merged in zip(names.ranks, inputs)])
    rdata_keys = np.concatenate(
        [ranks[merged.columns["row_rdata_ids"]]
         for ranks, merged in zip(rdatas.ranks, inputs)])
    qtypes = np.concatenate([merged.columns["row_qtypes"]
                             for merged in inputs])
    day_ids = np.concatenate(
        [np.array([day_index[day] for day in merged.days],
                  dtype=np.int32)[merged.columns["row_day_ids"]]
         for merged in inputs])

    order = np.lexsort((rdata_keys, _QTYPE_RANK[qtypes], name_keys))
    name_keys = name_keys[order]
    rdata_keys = rdata_keys[order]
    qtypes = qtypes[order]
    keep = _run_starts(name_keys, qtypes, rdata_keys)
    name_ids, name_ranks = _first_appearance_ids(name_keys[keep])
    rdata_ids, rdata_ranks = _first_appearance_ids(rdata_keys[keep])
    return (day_pool, names.pool(name_ranks), rdatas.pool(rdata_ranks),
            _Rows(name_ids, qtypes[keep], rdata_ids, day_ids[order][keep]),
            np.concatenate([merged.filters["zone_hashes"]
                            for merged in inputs]),
            np.concatenate([merged.filters["rr_hashes"]
                            for merged in inputs]))


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

    def merge_input(self) -> MergeInput:
        """Copies of everything :func:`merge_segments` reads."""
        return MergeInput(days=list(self.meta.days),
                          columns={key: np.array(column) for key, column
                                   in self.columns().items()},
                          filters=self._filters)

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
