"""One-call daily traffic report.

Aggregates every per-day statistic the paper's Section III surveys —
volumes above/below, NXDOMAIN split, population sizes, long-tail
fractions, CHR spread, Google/Akamai shares, top zones by lookup
volume — into a single renderable object.  This is the "panoramic view
of real-world DNS messages" (Section III-C) as a reusable report,
optionally annotated with the miner's disposable shares.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Set, Tuple

import numpy as np

from repro.analysis.tail import LOW_VOLUME_THRESHOLD
from repro.analysis.volume import DayVolumeSummary, day_summary_from_digest
from repro.core.hitrate import HitRateTable, hit_rates_from_digest
from repro.core.interning import DayDigest
from repro.core.suffix import SuffixList, default_suffix_list
from repro.textutil import format_kv, format_percent, format_table

__all__ = ["DailyTrafficReport", "build_daily_report_from_digest"]


@dataclass
class DailyTrafficReport:
    """Everything Section III measures about one day, in one object."""

    day: str
    volumes: DayVolumeSummary
    queried_domains: int
    resolved_domains: int
    distinct_rrs: int
    low_volume_tail_fraction: float
    zero_dhr_fraction: float
    chr_median: float
    top_zones: List[Tuple[str, int]]          # (2LD, lookup volume)
    disposable_queried_fraction: Optional[float] = None
    disposable_resolved_fraction: Optional[float] = None
    disposable_rr_fraction: Optional[float] = None

    def render(self) -> str:
        pairs = [
            ("answers below / above the resolvers",
             f"{self.volumes.below_total:,} / {self.volumes.above_total:,} "
             f"(ratio {self.volumes.above_below_ratio:.2f})"),
            ("NXDOMAIN share below / above",
             f"{format_percent(self.volumes.nxdomain_share_below)} / "
             f"{format_percent(self.volumes.nxdomain_share_above)}"),
            ("distinct queried / resolved names",
             f"{self.queried_domains:,} / {self.resolved_domains:,}"),
            ("distinct resource records", f"{self.distinct_rrs:,}"),
            (f"RRs with < {LOW_VOLUME_THRESHOLD} lookups",
             format_percent(self.low_volume_tail_fraction)),
            ("RRs with zero domain hit rate",
             format_percent(self.zero_dhr_fraction)),
            ("median cache hit rate sample", f"{self.chr_median:.3f}"),
            ("google+akamai share of below traffic",
             format_percent(self.volumes.google_akamai_share_below)),
        ]
        if self.disposable_resolved_fraction is not None:
            pairs.extend([
                ("disposable share of queried names",
                 format_percent(self.disposable_queried_fraction or 0.0)),
                ("disposable share of resolved names",
                 format_percent(self.disposable_resolved_fraction)),
                ("disposable share of distinct RRs",
                 format_percent(self.disposable_rr_fraction or 0.0)),
            ])
        header = format_kv(pairs, title=f"Daily traffic report — {self.day}")
        zones = format_table(["top 2LD zones by lookups", "volume"],
                             self.top_zones)
        return header + "\n\n" + zones


def _top_zones_from_digest(digest: DayDigest, suffixes: SuffixList,
                           top_n: int) -> List[Tuple[str, int]]:
    """Top effective-2LDs by below answer volume.

    Ties keep first-seen order: ``sorted`` is stable, so equal-volume
    zones stay in the order they first appear among the below answer
    entries.  That order is recovered with
    ``np.unique(return_index=True)`` over the per-entry zone ids.
    """
    e2ld_ids, zones = digest.names.effective_2ld_ids(suffixes)
    below = digest.below
    entry_zone_ids = e2ld_ids[below.name_ids[below.answer_mask]]
    entry_zone_ids = entry_zone_ids[entry_zone_ids >= 0]
    if entry_zone_ids.size == 0:
        return []
    zone_ids, first_positions = np.unique(entry_zone_ids, return_index=True)
    counts = np.bincount(entry_zone_ids, minlength=len(zones))
    first_seen_order = zone_ids[np.argsort(first_positions, kind="stable")]
    per_2ld = [(zones[int(zid)], int(counts[zid]))
               for zid in first_seen_order]
    return sorted(per_2ld, key=lambda kv: -kv[1])[:top_n]


def build_daily_report_from_digest(
        digest: DayDigest,
        hit_rates: Optional[HitRateTable] = None,
        disposable_groups: Optional[Set[Tuple[str, int]]] = None,
        suffix_list: Optional[SuffixList] = None,
        top_n: int = 10) -> DailyTrafficReport:
    """Compute the full report for one fpDNS day.

    All population counts, the top-zone table and the disposable
    shares come from numpy reductions over the digest columns.
    """
    if hit_rates is None:
        hit_rates = hit_rates_from_digest(digest)
    suffixes = suffix_list or default_suffix_list()

    lookup_counts = hit_rates.lookup_counts()
    low_tail = (float(np.mean(lookup_counts < LOW_VOLUME_THRESHOLD))
                if lookup_counts.size else 0.0)

    n_queried = int(digest.queried_name_ids().shape[0])
    n_resolved = int(digest.resolved_name_ids().shape[0])
    n_rrs = digest.distinct_rr_count()

    disposable_queried = disposable_resolved = disposable_rr = None
    if disposable_groups is not None:
        queried_hits, resolved_hits, rr_hits = (
            digest.match_counts(disposable_groups))
        disposable_queried = queried_hits / n_queried if n_queried else 0.0
        disposable_resolved = resolved_hits / n_resolved if n_resolved else 0.0
        disposable_rr = rr_hits / n_rrs if n_rrs else 0.0

    return DailyTrafficReport(
        day=digest.day,
        volumes=day_summary_from_digest(digest),
        queried_domains=n_queried,
        resolved_domains=n_resolved,
        distinct_rrs=n_rrs,
        low_volume_tail_fraction=low_tail,
        zero_dhr_fraction=hit_rates.zero_dhr_fraction(),
        chr_median=hit_rates.chr_median(),
        top_zones=_top_zones_from_digest(digest, suffixes, top_n),
        disposable_queried_fraction=disposable_queried,
        disposable_resolved_fraction=disposable_resolved,
        disposable_rr_fraction=disposable_rr)
