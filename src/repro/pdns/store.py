"""LSM-flavoured segmented on-disk passive-DNS store.

:class:`SegmentedPdnsStore` is the year-scale sibling of the in-memory
:class:`~repro.pdns.database.PassiveDnsDatabase`: every ingested day
becomes one immutable columnar segment
(:mod:`repro.pdns.segments`) published atomically through the
:class:`~repro.core.artifact_store.ArtifactStore`, and queries union
only the segments whose prefilters match — a point lookup over a year
of daily segments opens a handful of files and never materialises the
full record set.  The store answers the same queries as the in-memory
database (``first_seen``, ``entries_for_name``, ``entries_for_rdata``,
``names_under_zone``, ``new_records_per_day``, wildcard aggregation)
with equal results; the oracle-equality tests in
``tests/pdns/test_store.py`` pin that contract at several segment
layouts.

Dedup across segments
---------------------
Ingesting a day first drops every RR key whose 64-bit hash misses all
existing segments' RR-hash filters (the common case for genuinely new
records), then confirms the surviving candidates exactly against only
the segments that might hold them.  First ingest wins, exactly like
the in-memory database; days that contribute zero new rows still
publish an (empty) segment so the per-day new-record ledger and day
roster survive round trips and compaction — except when the day is
already accounted for, in which case the re-ingest is idempotent and
publishes nothing.

Residency and compaction
------------------------
Opened payloads are kept on a small LRU (``max_resident``); evicted
segments drop their zero-copy views via
:meth:`~repro.pdns.segments.Segment.release`, bounding peak memory no
matter how many segments a query touches.  :meth:`compact` merges
segments into one over their columns
(:func:`~repro.pdns.segments.merge_segments`: no row is decoded and no
string hashed again); because segment bytes are a pure function of
the merged (rows, days) content, any merge order or grouping converges
on **byte-identical** output.  :meth:`prune` is the operational
counterpart — it *discards* the oldest segments to fit a byte budget
(a destructive retention policy, unlike the artifact caches where a
pruned blob is recomputable).

Corruption
----------
``on_corrupt="raise"`` (default) propagates
:class:`~repro.core.container.FormatError` naming the bad file;
``on_corrupt="skip"`` quarantines the segment — it stops serving
queries and is reported via :meth:`corrupt_segments` — whether the
damage surfaces at open (header/filters) or lazily at first payload
access (checksum mismatch, undecodable columns).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path
from typing import (Callable, Dict, Iterable, Iterator, List, Optional,
                    Set, Tuple, TypeVar, Union)

import numpy as np

from repro.core.artifact_store import ArtifactStore
from repro.core.container import FormatError
from repro.core.interning import DayDigest
from repro.core.records import FpDnsDataset, RpDnsEntry, RRKey
from repro.pdns.database import IngestReport
from repro.pdns.segments import (SEGMENT_SUFFIX, MergeInput, Segment,
                                 build_segment_bytes, hash64, hash_rr_key,
                                 merge_segments, open_segment)

__all__ = ["CompactionReport", "SegmentedPdnsStore", "StoreStats"]

T = TypeVar("T")

#: Payloads kept resident at once (LRU); queries touching more
#: segments than this stream through them, releasing as they go.
DEFAULT_MAX_RESIDENT = 4

#: Candidate-count threshold (relative to segment rows) above which a
#: membership check materialises the segment's key set once instead of
#: running one hash-probe per candidate.
_BULK_CHECK_FRACTION = 16

#: Quarantine reports retained (oldest dropped beyond this), so a
#: long-running skip-mode session cannot leak report entries.
MAX_CORRUPT_REPORTS = 256


@dataclass(frozen=True)
class StoreStats:
    """Operational snapshot of one segmented store."""

    root: str
    n_segments: int
    n_rows: int
    n_days: int
    total_bytes: int
    resident_segments: int
    segments_opened: int
    segments_skipped: int
    corrupt_segments: int

    def render(self) -> str:
        lines = [
            f"{self.root}: {self.n_segments} segments, "
            f"{self.n_rows} rows, {self.n_days} days, "
            f"{self.total_bytes} bytes",
            f"  resident payloads   {self.resident_segments}",
            f"  prefilter opened    {self.segments_opened}",
            f"  prefilter skipped   {self.segments_skipped}",
        ]
        if self.corrupt_segments:
            lines.append(f"  corrupt (skipped)   {self.corrupt_segments}")
        return "\n".join(lines)


@dataclass(frozen=True)
class CompactionReport:
    """What one :meth:`SegmentedPdnsStore.compact` pass did."""

    merged_segments: int
    merged_rows: int
    bytes_before: int
    bytes_after: int

    def render(self) -> str:
        return (f"compacted {self.merged_segments} segments "
                f"({self.merged_rows} rows): "
                f"{self.bytes_before} -> {self.bytes_after} bytes")


class SegmentedPdnsStore:
    """Append-only pDNS database over immutable on-disk segments.

    Drop-in query-compatible with
    :class:`~repro.pdns.database.PassiveDnsDatabase` (see
    :class:`~repro.pdns.database.PdnsBackend`); rows live on disk and
    only prefilter-matching segments are ever opened.
    """

    #: ``storage_bytes`` here is real on-disk segment bytes.
    storage_is_measured = True

    def __init__(self, root: Union[str, Path],
                 max_resident: int = DEFAULT_MAX_RESIDENT,
                 on_corrupt: str = "raise") -> None:
        if on_corrupt not in ("raise", "skip"):
            raise ValueError(
                f"on_corrupt must be 'raise' or 'skip', got {on_corrupt!r}")
        if max_resident < 1:
            raise ValueError(
                f"max_resident must be >= 1, got {max_resident}")
        self._artifacts = ArtifactStore(root, SEGMENT_SUFFIX)
        self._max_resident = max_resident
        self._on_corrupt = on_corrupt
        self._segments: List[Segment] = []
        self._resident: List[Segment] = []
        self._corrupt: List[Tuple[str, str]] = []
        #: Prefilter effectiveness counters (exposed via :meth:`stats`).
        self.segments_opened = 0
        self.segments_skipped = 0
        self._reload()

    # -- segment roster ------------------------------------------------

    @property
    def root(self) -> Path:
        return self._artifacts.root

    def _reload(self) -> None:
        """Re-open the segment roster from disk (sorted key order)."""
        for segment in self._resident:
            segment.release()
        self._resident.clear()
        self._segments.clear()
        for key in self._artifacts.keys():
            path = self._artifacts.path_for(key)
            try:
                self._segments.append(open_segment(str(path)))
            except FormatError as exc:
                if self._on_corrupt == "raise":
                    raise
                self._record_corrupt(str(path), exc)

    def _record_corrupt(self, path: str, error: FormatError) -> None:
        self._corrupt.append((path, str(error)))
        del self._corrupt[:-MAX_CORRUPT_REPORTS]

    def _quarantine(self, segment: Segment, error: FormatError) -> None:
        segment.release()
        if segment in self._segments:
            self._segments.remove(segment)
        if segment in self._resident:
            self._resident.remove(segment)
        self._record_corrupt(segment.path, error)

    def _with_segment(self, segment: Segment,
                      operation: Callable[[Segment], T]) -> Optional[T]:
        """Run ``operation`` against one opened segment payload.

        Counts the open, maintains the residency LRU, and — in
        ``skip`` mode — quarantines segments whose payload turns out
        corrupt instead of failing the query.
        """
        self.segments_opened += 1
        try:
            result = operation(segment)
        except FormatError as exc:
            if self._on_corrupt == "raise":
                raise
            self._quarantine(segment, exc)
            return None
        if segment in self._resident:
            self._resident.remove(segment)
        self._resident.append(segment)
        while len(self._resident) > self._max_resident:
            self._resident.pop(0).release()
        return result

    def corrupt_segments(self) -> List[Tuple[str, str]]:
        """(path, error) for every quarantined segment (skip mode)."""
        return list(self._corrupt)

    # -- ingestion -----------------------------------------------------

    def ingest_day(self, dataset: FpDnsDataset) -> IngestReport:
        """Ingest one fpDNS day (same contract as the in-memory DB)."""
        return self.ingest_rrs(dataset.day, dataset.distinct_rrs())

    def ingest_digest(self, digest: DayDigest) -> IngestReport:
        """Ingest a columnar day digest (deterministic RR-id order)."""
        return self.ingest_rrs(digest.day, digest.distinct_rr_keys_ordered())

    def ingest_rrs(self, day: str,
                   rr_keys: Iterable[RRKey]) -> IngestReport:
        """Ingest RR identity triples for ``day`` as one new segment.

        Records already stored (any earlier segment) are counted as
        duplicates and not stored again — first ingest wins, exactly
        like the in-memory database.  A day with zero new records
        still publishes an empty segment so the per-day ledger is
        preserved — unless the day is already accounted for, in which
        case nothing is published (re-ingesting an already-ingested
        day is idempotent: no redundant empty segment duplicating an
        existing roster).
        """
        keys = list(rr_keys)
        unique = list(dict.fromkeys(keys))
        hashes = _rr_hashes(unique)
        known = self._known_keys(unique, hashes)
        fresh_index = np.array([index for index, key in enumerate(unique)
                                if key not in known], dtype=np.intp)
        fresh = {unique[index]: day for index in fresh_index.tolist()}
        if not fresh and any(day in segment.meta.days
                             for segment in self._segments):
            return IngestReport(day=day, total_records_seen=len(keys),
                                new_records=0,
                                duplicate_records=len(keys))
        data = build_segment_bytes(fresh, days=[day],
                                   rr_hashes=hashes[fresh_index])
        key = _segment_key(day, day, data)
        already_listed = {segment.path for segment in self._segments}
        path = self._artifacts.store_bytes(key, data)
        if str(path) not in already_listed:
            self._segments.append(open_segment(str(path)))
        return IngestReport(day=day, total_records_seen=len(keys),
                            new_records=len(fresh),
                            duplicate_records=len(keys) - len(fresh))

    def _known_keys(self, candidates: List[RRKey],
                    hashes: np.ndarray) -> Set[RRKey]:
        """Which of ``candidates`` (RR hashes ``hashes``) are already
        stored, prefilter-first."""
        if not candidates:
            return set()
        known: Set[RRKey] = set()
        for segment in list(self._segments):
            mask = segment.matching_rr_hashes(hashes)
            if not bool(mask.any()):
                self.segments_skipped += 1
                continue
            pending = [candidates[index]
                       for index in np.nonzero(mask)[0].tolist()
                       if candidates[index] not in known]
            if not pending:
                self.segments_skipped += 1
                continue
            known.update(self._confirm_present(segment, pending))
        return known

    def _confirm_present(self, segment: Segment,
                         candidates: List[RRKey]) -> Set[RRKey]:
        """Exact membership of hash-matching ``candidates``."""
        def check(seg: Segment) -> Set[RRKey]:
            if (len(candidates) * _BULK_CHECK_FRACTION
                    >= max(seg.meta.n_rows, 1)):
                stored = {key for key, _ in seg.rr_items()}
                return {key for key in candidates if key in stored}
            return {key for key in candidates
                    if seg.first_seen_of(key) is not None}
        present = self._with_segment(segment, check)
        return present if present is not None else set()

    # -- point and zone queries ----------------------------------------

    def __len__(self) -> int:
        return sum(segment.meta.n_rows for segment in self._segments)

    def __contains__(self, key: RRKey) -> bool:
        return self.first_seen(key) is not None

    def first_seen(self, key: RRKey) -> Optional[str]:
        """First-seen day of ``key``, or ``None`` (point lookup)."""
        target = hash_rr_key(key)
        for segment in list(self._segments):
            if not segment.may_contain_rr_hash(target):
                self.segments_skipped += 1
                continue
            day = self._with_segment(
                segment, lambda seg: seg.first_seen_of(key))
            if day is not None:
                return day
        return None

    def entries_for_name(self, name: str) -> List[RpDnsEntry]:
        """Stored records owned by ``name`` (segment order, canonical
        RR order within each segment)."""
        target = hash64(name)
        found: List[RpDnsEntry] = []
        for segment in list(self._segments):
            if not segment.may_contain_name_hash(target):
                self.segments_skipped += 1
                continue
            rows = self._with_segment(
                segment, lambda seg: seg.entries_for_name(name))
            if rows:
                found.extend(rows)
        return found

    def entries_for_rdata(self, rdata: str) -> List[RpDnsEntry]:
        """Stored records carrying ``rdata`` (segment order)."""
        target = hash64(rdata)
        found: List[RpDnsEntry] = []
        for segment in list(self._segments):
            if not segment.may_contain_rdata_hash(target):
                self.segments_skipped += 1
                continue
            rows = self._with_segment(
                segment, lambda seg: seg.entries_for_rdata(rdata))
            if rows:
                found.extend(rows)
        return found

    def names_under_zone(self, zone: str) -> Set[str]:
        """Distinct stored names strictly below ``zone``."""
        target = hash64(zone)
        names: Set[str] = set()
        for segment in list(self._segments):
            if not segment.may_contain_zone_hash(target):
                self.segments_skipped += 1
                continue
            under = self._with_segment(
                segment, lambda seg: seg.names_under_zone(zone))
            if under:
                names.update(under)
        return names

    # -- whole-store iteration (streaming, bounded residency) ----------

    def iter_rr_items(self) -> Iterator[Tuple[RRKey, str]]:
        """Every (RR key, first-seen day), segment by segment."""
        for segment in list(self._segments):
            items = self._with_segment(
                segment, lambda seg: list(seg.rr_items()))
            if items:
                for item in items:
                    yield item

    def iter_rr_keys(self) -> Iterator[RRKey]:
        for key, _ in self.iter_rr_items():
            yield key

    def iter_entries(self) -> Iterator[RpDnsEntry]:
        for (name, qtype, rdata), day in self.iter_rr_items():
            yield RpDnsEntry(name, qtype, rdata, day)

    def rr_keys(self) -> List[RRKey]:
        return list(self.iter_rr_keys())

    def entries(self) -> List[RpDnsEntry]:
        return list(self.iter_entries())

    def novel_keys(self, rr_keys: Iterable[RRKey]) -> List[RRKey]:
        """The subset of ``rr_keys`` not yet stored, input order kept
        (duplicates within the input stay duplicated — callers count
        them).  One prefilter pass instead of a per-key ``in`` loop."""
        keys = list(rr_keys)
        unique = list(dict.fromkeys(keys))
        known = self._known_keys(unique, _rr_hashes(unique))
        return [key for key in keys if key not in known]

    # -- per-day ledger ------------------------------------------------

    def new_records_per_day(self) -> Dict[str, int]:
        """Day -> never-before-seen RRs (Figure 5 series), summed over
        segments; zero-record days are present with count 0."""
        totals: Dict[str, int] = {}
        for segment in list(self._segments):
            counts = self._with_segment(
                segment, lambda seg: seg.new_counts_by_day())
            if counts is not None:
                for day, count in counts.items():
                    totals[day] = totals.get(day, 0) + count
        return totals

    def ingested_days(self) -> List[str]:
        """Every accounted day, sorted (header-only; no payloads)."""
        days: Set[str] = set()
        for segment in self._segments:
            days.update(segment.meta.days)
        return sorted(days)

    def storage_bytes(self) -> int:
        """Actual on-disk segment bytes (measured, not modeled)."""
        return self._artifacts.total_bytes()

    # -- maintenance: compact / prune / stats --------------------------

    def compact(self, max_rows: Optional[int] = None) -> CompactionReport:
        """Merge segments with at most ``max_rows`` rows (default: all)
        into one.

        The merged segment carries the union of the inputs' rows *and*
        day rosters, so exact first-seen days, zero-record days and
        canonical RR order all survive; its bytes depend only on that
        merged content, never on merge order or grouping.  A key
        stored twice keeps its first copy in roster order.

        An input that cannot be deleted raises after the roster is
        re-read, so the store then serves exactly what is on disk
        (the merged segment and the inputs still there); compacting
        again once the fault clears converges on the clean result.
        """
        bytes_before = self.storage_bytes()
        mergeable = [segment for segment in self._segments
                     if max_rows is None or segment.meta.n_rows <= max_rows]
        if len(mergeable) < 2:
            return CompactionReport(merged_segments=0, merged_rows=0,
                                    bytes_before=bytes_before,
                                    bytes_after=bytes_before)
        inputs: List[MergeInput] = []
        merged_paths: List[str] = []
        for segment in mergeable:
            copied = self._with_segment(segment, Segment.merge_input)
            if copied is None:
                continue  # quarantined mid-compaction (skip mode)
            inputs.append(copied)
            merged_paths.append(segment.path)
        if len(merged_paths) < 2:
            return CompactionReport(merged_segments=0, merged_rows=0,
                                    bytes_before=bytes_before,
                                    bytes_after=self.storage_bytes())
        data = merge_segments(inputs)
        merged_key = _segment_key(min(copied.days[0] for copied in inputs),
                                  max(copied.days[-1] for copied in inputs),
                                  data)
        merged_path = self._artifacts.store_bytes(merged_key, data)
        merged_rows = open_segment(str(merged_path)).meta.n_rows
        try:
            for path in merged_paths:
                # An identity merge (every other input contributed
                # nothing, e.g. a stray empty segment whose day roster
                # duplicates a sibling's) yields bytes — and therefore a
                # content key — equal to one input's; deleting that key
                # would destroy the freshly published output.
                key = _key_of_path(path)
                if key != merged_key:
                    self._artifacts.delete(key)
        finally:
            self._reload()
        return CompactionReport(merged_segments=len(merged_paths),
                                merged_rows=merged_rows,
                                bytes_before=bytes_before,
                                bytes_after=self.storage_bytes())

    def prune(self, max_bytes: int) -> List[str]:
        """Drop the oldest segments (by publish time — the store never
        refreshes segment mtimes on read) until the store fits
        ``max_bytes``.  **Destructive**: pruned rows are gone (this is
        retention policy, not cache eviction); returns removed keys."""
        removed = self._artifacts.prune(max_bytes)
        if removed:
            self._reload()
        return removed

    def release(self) -> None:
        """Evict every resident payload (drops all zero-copy views)."""
        for segment in self._resident:
            segment.release()
        self._resident.clear()

    def stats(self) -> StoreStats:
        days: Set[str] = set()
        for segment in self._segments:
            days.update(segment.meta.days)
        return StoreStats(
            root=str(self.root),
            n_segments=len(self._segments),
            n_rows=len(self),
            n_days=len(days),
            total_bytes=self.storage_bytes(),
            resident_segments=len(self._resident),
            segments_opened=self.segments_opened,
            segments_skipped=self.segments_skipped,
            corrupt_segments=len(self._corrupt))

    def reset_counters(self) -> None:
        """Zero the prefilter hit/skip counters (bench instrumentation)."""
        self.segments_opened = 0
        self.segments_skipped = 0


def _rr_hashes(keys: List[RRKey]) -> np.ndarray:
    return np.array([hash_rr_key(key) for key in keys], dtype=np.uint64)


def _segment_key(days_first: str, days_last: str, data: bytes) -> str:
    digest = hashlib.sha256(data).hexdigest()[:16]
    return f"{days_first}--{days_last}--{digest}"


def _key_of_path(path: str) -> str:
    name = Path(path).name
    return name[:-len(SEGMENT_SUFFIX)]
