"""Forensic query interface over the passive-DNS database.

Section VI-C motivates pDNS-DBs as the tool behind incident forensics
(Aurora, RSA, Stuxnet, Flame investigations) and domain-reputation
systems: given an indicator — a name or an address — an analyst pulls
its resolution history.  :class:`PdnsQueryIndex` builds the two
inverted indexes such lookups need (name → records, RDATA → records)
plus a zone index for "everything under this apex", and exposes the
latency-relevant statistic the paper worries about: how much bigger
disposable churn makes those indexes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Set

from repro.pdns.database import PassiveDnsDatabase
from repro.core.records import RpDnsEntry

__all__ = ["IndexStats", "PdnsQueryIndex"]


@dataclass(frozen=True)
class IndexStats:
    """Size accounting for the query indexes."""

    records: int
    distinct_names: int
    distinct_rdata: int
    distinct_zones: int


class PdnsQueryIndex:
    """Query interface over a :class:`PassiveDnsDatabase`.

    The database maintains the inverted indexes (name → records,
    RDATA → records, zone → names) incrementally as records are
    ingested, so this view never re-scans the full table: it stays
    current after further ingestion with no rebuild.
    """

    def __init__(self, database: PassiveDnsDatabase) -> None:
        self._database = database

    # -- lookups ------------------------------------------------------------

    def history_for_name(self, name: str) -> List[RpDnsEntry]:
        """All records ever observed for ``name``, oldest first."""
        records = self._database.entries_for_name(name.lower().rstrip("."))
        return sorted(records, key=lambda e: (e.first_seen, e.rdata))

    def names_for_rdata(self, rdata: str) -> List[str]:
        """Every name that ever resolved to ``rdata`` — the classic
        pivot when an analyst holds a malicious IP."""
        return sorted({entry.qname
                       for entry in self._database.entries_for_rdata(rdata)})

    def names_under_zone(self, zone: str) -> List[str]:
        """Every stored name below ``zone`` (strict descendants)."""
        return sorted(
            self._database.names_under_zone(zone.lower().rstrip(".")))

    def first_seen(self, name: str) -> Optional[str]:
        """Earliest first-seen day across the name's records."""
        history = self.history_for_name(name)
        return history[0].first_seen if history else None

    def cooccurring_names(self, name: str) -> List[str]:
        """Names sharing any RDATA with ``name`` (infrastructure
        overlap, the reputation-system primitive)."""
        related: Set[str] = set()
        for record in self.history_for_name(name):
            related.update(self.names_for_rdata(record.rdata))
        related.discard(name.lower().rstrip("."))
        return sorted(related)

    # -- accounting ----------------------------------------------------------

    def stats(self) -> IndexStats:
        records, names, rdata, zones = self._database.index_stats()
        return IndexStats(records=records, distinct_names=names,
                          distinct_rdata=rdata, distinct_zones=zones)
