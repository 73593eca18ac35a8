"""Passive-DNS database (pDNS-DB) with rpDNS deduplication.

Ingesting daily fpDNS datasets, the database keeps every *distinct*
successful resource record with its first-seen day — the paper's rpDNS
dataset — and accounts storage growth.  Section VI-C's mitigation is
also implemented: given the miner's (zone, depth) outputs, disposable
records can be collapsed onto wildcard rows
(``1022vr5.dns.xx.fbcdn.net`` -> ``*.dns.xx.fbcdn.net``), shrinking the
store by orders of magnitude while preserving the forensic signal that
the zone was active.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (Dict, Iterable, Iterator, List, Optional, Protocol,
                    Set, Tuple, runtime_checkable)

from repro.core.groups import matching_group_zone
from repro.core.interning import DayDigest
from repro.core.names import labels, parent
from repro.dns.message import RRType
from repro.core.records import FpDnsDataset, RpDnsEntry, RRKey

__all__ = ["IngestReport", "PassiveDnsDatabase", "PdnsBackend",
           "wildcard_aggregated_size", "wildcard_name"]

# Rough per-row storage cost, matching the paper's seven-to-nine GB for
# a few hundred million rows (~40-60 B of name + type + rdata + date).
ROW_BYTES = 48


def wildcard_name(name: str) -> str:
    """Replace the leftmost label of ``name`` with ``*``."""
    rest = parent(name)
    if rest is None:
        return "*"
    return "*." + rest


@runtime_checkable
class PdnsBackend(Protocol):
    """What the analyses need from a passive-DNS database.

    Both :class:`PassiveDnsDatabase` (in-memory) and
    :class:`~repro.pdns.store.SegmentedPdnsStore` (on-disk segments)
    satisfy this, so the dedup window, the Section VI-C storage study
    and the growth series accept either backend interchangeably.
    """

    def ingest_rrs(self, day: str,
                   rr_keys: Iterable[RRKey]) -> "IngestReport": ...

    def novel_keys(self, rr_keys: Iterable[RRKey]) -> List[RRKey]: ...

    def first_seen(self, key: RRKey) -> Optional[str]: ...

    def iter_rr_keys(self) -> Iterator[RRKey]: ...

    def new_records_per_day(self) -> Dict[str, int]: ...

    def ingested_days(self) -> List[str]: ...

    def storage_bytes(self) -> int: ...

    def __len__(self) -> int: ...


@dataclass
class IngestReport:
    """Summary of one day's ingestion."""

    day: str
    total_records_seen: int
    new_records: int
    duplicate_records: int

    @property
    def dedup_ratio(self) -> float:
        if not self.total_records_seen:
            return 0.0
        return self.new_records / self.total_records_seen


class PassiveDnsDatabase:
    """Append-only store of distinct RRs with first-seen tracking."""

    #: ``storage_bytes`` is the paper's 48-B/row model, not a
    #: measurement (the segmented store reports real on-disk bytes).
    storage_is_measured = False

    def __init__(self) -> None:
        self._first_seen: Dict[RRKey, str] = {}
        self._new_per_day: Dict[str, int] = {}
        self._ingest_order: List[str] = []
        # Forensic query indexes (name -> records, RDATA -> records,
        # zone -> descendant names), maintained incrementally as new
        # records arrive so lookups never re-scan the full table.
        self._entries_by_name: Dict[str, List[RpDnsEntry]] = {}
        self._entries_by_rdata: Dict[str, List[RpDnsEntry]] = {}
        self._names_by_zone: Dict[str, Set[str]] = {}

    # -- ingestion -----------------------------------------------------

    def ingest_day(self, dataset: FpDnsDataset) -> IngestReport:
        """Ingest one fpDNS day; duplicates (already-known RRs) are
        counted but not stored again."""
        return self.ingest_rrs(dataset.day, dataset.distinct_rrs())

    def ingest_digest(self, digest: DayDigest) -> IngestReport:
        """Ingest a columnar day digest (same record set as
        :meth:`ingest_day`, in deterministic RR-id order)."""
        return self.ingest_rrs(digest.day, digest.distinct_rr_keys_ordered())

    def ingest_rrs(self, day: str, rr_keys: Iterable[RRKey]) -> IngestReport:
        """Ingest an arbitrary set of RR identity triples for ``day``."""
        total = 0
        new = 0
        for key in rr_keys:
            total += 1
            if key not in self._first_seen:
                self._first_seen[key] = day
                new += 1
                self._index_record(RpDnsEntry(key[0], key[1], key[2], day))
        self._new_per_day[day] = self._new_per_day.get(day, 0) + new
        if day not in self._ingest_order:
            self._ingest_order.append(day)
        return IngestReport(day=day, total_records_seen=total,
                            new_records=new, duplicate_records=total - new)

    def _index_record(self, entry: RpDnsEntry) -> None:
        self._entries_by_name.setdefault(entry.qname, []).append(entry)
        self._entries_by_rdata.setdefault(entry.rdata, []).append(entry)
        parts = labels(entry.qname)
        for i in range(1, len(parts)):
            zone = ".".join(parts[i:])
            self._names_by_zone.setdefault(zone, set()).add(entry.qname)

    # -- queries -------------------------------------------------------

    def __len__(self) -> int:
        return len(self._first_seen)

    def __contains__(self, key: RRKey) -> bool:
        return key in self._first_seen

    def first_seen(self, key: RRKey) -> Optional[str]:
        return self._first_seen.get(key)

    def entries(self) -> List[RpDnsEntry]:
        """The full rpDNS dataset (materialised; prefer
        :meth:`iter_entries` in hot paths)."""
        return list(self.iter_entries())

    def iter_entries(self) -> Iterator[RpDnsEntry]:
        """The full rpDNS dataset, streamed without a list copy."""
        for (name, rtype, rdata), day in self._first_seen.items():
            yield RpDnsEntry(name, rtype, rdata, day)

    def rr_keys(self) -> List[RRKey]:
        """All stored RR keys (materialised; prefer
        :meth:`iter_rr_keys` in hot paths)."""
        return list(self._first_seen)

    def iter_rr_keys(self) -> Iterator[RRKey]:
        """All stored RR keys, streamed without a list copy."""
        return iter(self._first_seen)

    def novel_keys(self, rr_keys: Iterable[RRKey]) -> List[RRKey]:
        """The subset of ``rr_keys`` not yet stored, input order kept
        (duplicates within the input stay duplicated)."""
        return [key for key in rr_keys if key not in self._first_seen]

    # -- incremental query indexes --------------------------------------

    def entries_for_name(self, name: str) -> List[RpDnsEntry]:
        """Stored records owned by ``name`` (ingest order)."""
        return list(self._entries_by_name.get(name, ()))

    def entries_for_rdata(self, rdata: str) -> List[RpDnsEntry]:
        """Stored records carrying ``rdata`` (ingest order)."""
        return list(self._entries_by_rdata.get(rdata, ()))

    def names_under_zone(self, zone: str) -> Set[str]:
        """Distinct stored names strictly below ``zone``."""
        return set(self._names_by_zone.get(zone, ()))

    def index_stats(self) -> Tuple[int, int, int, int]:
        """(records, distinct names, distinct RDATA, distinct zones)."""
        return (len(self._first_seen), len(self._entries_by_name),
                len(self._entries_by_rdata), len(self._names_by_zone))

    def new_records_per_day(self) -> Dict[str, int]:
        """Day -> number of never-before-seen RRs (Figure 5 series)."""
        return dict(self._new_per_day)

    def ingested_days(self) -> List[str]:
        return list(self._ingest_order)

    def storage_bytes(self) -> int:
        return len(self._first_seen) * ROW_BYTES


def wildcard_aggregated_size(backend: PdnsBackend,
                             disposable_groups: Set[Tuple[str, int]]) -> int:
    """Section VI-C mitigation: row count of ``backend`` after
    collapsing disposable RRs onto wildcard rows.

    ``disposable_groups`` is the miner's output: pairs ``(zone,
    depth)`` meaning "names at ``depth`` labels under ``zone`` are
    disposable".  Each matching record is replaced by its wildcard
    row; distinct wildcard rows are counted once.  The stored keys are
    streamed, so the segmented store never holds them all at once.
    """
    kept = 0
    wildcards: Set[str] = set()
    for name, _, _ in backend.iter_rr_keys():
        zone = matching_group_zone(name, disposable_groups)
        if zone is not None:
            # Anchor the wildcard at the flagged zone, so deep schemes
            # (constant labels left of the random one, as in the McAfee
            # names) still collapse to a single row.
            wildcards.add("*." + zone)
        else:
            kept += 1
    return kept + len(wildcards)
