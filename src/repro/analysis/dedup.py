"""Deduplication analyses over the rpDNS window (Figures 5 and 15).

Figure 5: new (never-before-seen) RRs per day over the 13-day rpDNS
window, overall and for the Google/Akamai groups — overall and Akamai
decline as the database warms up while Google keeps producing fresh
RRs.  Figure 15 repeats the series split into disposable and
non-disposable components: non-disposable new RRs collapse (13 M →
1.6 M in the paper) while disposable stays high, ending with 88 % of
all stored unique RRs disposable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.analysis.volume import ZONE_GROUPS, _in_group
from repro.core.groups import name_matches_groups
from repro.pdns.database import PassiveDnsDatabase, PdnsBackend
from repro.core.records import FpDnsDataset, RRKey

__all__ = ["NewRrDay", "DedupReport", "run_dedup_window"]


@dataclass(frozen=True)
class NewRrDay:
    """New-RR counts for one ingested day."""

    day: str
    new_total: int
    new_google: int
    new_akamai: int
    new_disposable: int
    new_non_disposable: int

    @property
    def disposable_share(self) -> float:
        return self.new_disposable / self.new_total if self.new_total else 0.0


@dataclass
class DedupReport:
    """Outcome of ingesting a consecutive window into a fresh pDNS-DB."""

    days: List[NewRrDay]
    total_unique_rrs: int
    disposable_unique_rrs: int

    @property
    def disposable_fraction(self) -> float:
        """Paper: 88 % of all unique RRs after 13 days are disposable."""
        return (self.disposable_unique_rrs / self.total_unique_rrs
                if self.total_unique_rrs else 0.0)

    @property
    def first_day(self) -> NewRrDay:
        return self.days[0]

    @property
    def last_day(self) -> NewRrDay:
        return self.days[-1]

    def overall_decline(self) -> float:
        """Relative drop of daily new RRs from first to last day."""
        if not self.days or self.first_day.new_total == 0:
            return 0.0
        return 1.0 - self.last_day.new_total / self.first_day.new_total


def run_dedup_window(datasets: Sequence[FpDnsDataset],
                     disposable_groups: Set[Tuple[str, int]],
                     database: Optional[PdnsBackend] = None) -> DedupReport:
    """Ingest a consecutive day window and report new-RR dynamics.

    ``database`` may be any :class:`~repro.pdns.database.PdnsBackend`
    — the in-memory database (default) or the segmented on-disk store.
    """
    db: PdnsBackend = (database if database is not None
                       else PassiveDnsDatabase())
    days: List[NewRrDay] = []
    for dataset in datasets:
        day_keys = dataset.distinct_rrs()
        fresh = db.novel_keys(day_keys)
        db.ingest_rrs(dataset.day, day_keys)
        new_google = sum(1 for key in fresh
                         if _in_group(key[0], ZONE_GROUPS["google"]))
        new_akamai = sum(1 for key in fresh
                         if _in_group(key[0], ZONE_GROUPS["akamai"]))
        new_disposable = sum(
            1 for key in fresh
            if name_matches_groups(key[0], disposable_groups))
        days.append(NewRrDay(
            day=dataset.day, new_total=len(fresh), new_google=new_google,
            new_akamai=new_akamai, new_disposable=new_disposable,
            new_non_disposable=len(fresh) - new_disposable))
    disposable_total = sum(
        1 for key in db.iter_rr_keys()
        if name_matches_groups(key[0], disposable_groups))
    return DedupReport(days=days, total_unique_rrs=len(db),
                       disposable_unique_rrs=disposable_total)
