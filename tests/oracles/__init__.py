"""Per-entry reference implementations of the per-day computations.

src computes each fpDNS day's hit rates, domain tree, Algorithm 1
mining run and Section III statistics once, over the columnar
:class:`~repro.core.interning.DayDigest`.  The functions here compute
the same results the straightforward way, by walking the day's raw
entry lists, and the equality tests hold every digest function to its
oracle on the same day:

* :func:`compute_hit_rates` — ``repro.core.hitrate.hit_rates_from_digest``
* :func:`build_tree_for_day` — ``repro.core.ranking.build_tree_from_digest``
* :func:`run_day` — ``DisposableZoneRanker.run_digest``
* :func:`hourly_volumes`, :func:`day_summary`, :func:`clients_per_name`,
  :func:`chr_split`, :func:`build_daily_report` — the ``*_from_digest``
  function of the same name in ``repro.analysis``
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from repro.analysis.cdf import EmpiricalCdf
from repro.analysis.chrdist import ChrSplit
from repro.analysis.clients import ClientSpreadReport
from repro.analysis.summary import DailyTrafficReport
from repro.analysis.tail import LOW_VOLUME_THRESHOLD
from repro.analysis.volume import (ZONE_GROUPS, DayVolumeSummary,
                                   VolumeSeries, _bin_volumes, _in_group)
from repro.core.dnstypes import RCode
from repro.core.features import FeatureExtractor
from repro.core.groups import name_matches_groups
from repro.core.hitrate import HitRateTable, RRHitRate
from repro.core.miner import DisposableZoneMiner
from repro.core.ranking import DailyMiningResult, DisposableZoneRanker
from repro.core.records import FpDnsDataset, FpDnsEntry, RRKey, rr_sort_key
from repro.core.suffix import SuffixList, default_suffix_list
from repro.core.tree import DomainNameTree

__all__ = ["compute_hit_rates", "build_tree_for_day", "run_day",
           "hourly_volumes", "day_summary", "clients_per_name",
           "chr_split", "build_daily_report"]


# -- mining inputs and Algorithm 1 (Figure 10) ---------------------------


def compute_hit_rates(dataset: FpDnsDataset) -> HitRateTable:
    """Build the per-RR hit-rate table for one fpDNS day.

    A record observed above but never below (e.g. prefetched and never
    re-asked within the day boundary) still appears, with zero queries
    below; its DHR is 0 by convention.
    """
    below = dataset.below_counts_by_rr()
    above = dataset.above_counts_by_rr()
    rates: Dict[RRKey, RRHitRate] = {}
    for key in sorted(set(below) | set(above), key=rr_sort_key):
        rates[key] = RRHitRate(key=key,
                               queries_below=below.get(key, 0),
                               misses_above=above.get(key, 0))
    return HitRateTable(rates, day=dataset.day)


def build_tree_for_day(dataset: FpDnsDataset) -> DomainNameTree:
    """Stage 1 (Domain Name Tree Builder): black nodes are the names
    that carried at least one RR below the resolvers that day."""
    tree = DomainNameTree()
    for name in dataset.resolved_domains():
        tree.add_domain(name)
    return tree


def run_day(ranker: DisposableZoneRanker, dataset: FpDnsDataset,
            hit_rates: Optional[HitRateTable] = None) -> DailyMiningResult:
    """Run tree building, mining and ranking for one fpDNS day."""
    if hit_rates is None:
        hit_rates = compute_hit_rates(dataset)
    tree = build_tree_for_day(dataset)
    extractor = FeatureExtractor(tree, hit_rates)
    miner = DisposableZoneMiner(ranker.classifier, ranker.config,
                                ranker.suffix_list)
    findings = miner.mine(tree, extractor)
    groups = DisposableZoneMiner.findings_as_groups(findings)

    queried = dataset.queried_domains()
    resolved = dataset.resolved_domains()
    rrs = dataset.distinct_rrs()
    disposable_queried = sum(
        1 for name in queried if name_matches_groups(name, groups))
    disposable_resolved = sum(
        1 for name in resolved if name_matches_groups(name, groups))
    disposable_rrs = sum(
        1 for (name, _, _) in rrs if name_matches_groups(name, groups))

    return DailyMiningResult(
        day=dataset.day, findings=findings,
        queried_domains=len(queried), resolved_domains=len(resolved),
        distinct_rrs=len(rrs), disposable_queried=disposable_queried,
        disposable_resolved=disposable_resolved,
        disposable_rrs=disposable_rrs)


# -- traffic volumes (Figure 2) -------------------------------------------


def hourly_volumes(dataset: FpDnsDataset, side: str = "below",
                   n_bins: int = 24,
                   day_seconds: float = 86_400.0) -> VolumeSeries:
    """Bin one stream of an fpDNS day into ``n_bins`` volume counts."""
    if side == "below":
        entries: List[FpDnsEntry] = dataset.below
    elif side == "above":
        entries = dataset.above
    else:
        raise ValueError(f"side must be 'below' or 'above', got {side!r}")

    # Single pass over the entries: pull the three relevant columns
    # out, then bin with vectorised numpy ops (the old min() pre-pass
    # plus per-entry bucketing loop walked the list twice).
    timestamps = np.empty(len(entries), dtype=np.float64)
    is_nx = np.empty(len(entries), dtype=bool)
    in_google = np.empty(len(entries), dtype=bool)
    in_akamai = np.empty(len(entries), dtype=bool)
    for position, entry in enumerate(entries):
        timestamps[position] = entry.timestamp
        is_nx[position] = entry.rcode is RCode.NXDOMAIN
        in_google[position] = _in_group(entry.qname, ZONE_GROUPS["google"])
        in_akamai[position] = (not in_google[position]
                               and _in_group(entry.qname,
                                             ZONE_GROUPS["akamai"]))
    return _bin_volumes(dataset.day, side, n_bins, day_seconds,
                        timestamps, is_nx, in_google, in_akamai)


def day_summary(dataset: FpDnsDataset) -> DayVolumeSummary:
    below_google = sum(1 for e in dataset.below
                       if _in_group(e.qname, ZONE_GROUPS["google"]))
    below_akamai = sum(1 for e in dataset.below
                       if _in_group(e.qname, ZONE_GROUPS["akamai"]))
    return DayVolumeSummary(
        day=dataset.day,
        below_total=dataset.below_volume(),
        above_total=dataset.above_volume(),
        below_nxdomain=dataset.nxdomain_volume_below(),
        above_nxdomain=dataset.nxdomain_volume_above(),
        below_google=below_google,
        below_akamai=below_akamai)


# -- clients per name and CHR split (Section I, Figure 7) -----------------


def clients_per_name(dataset: FpDnsDataset,
                     disposable_groups: Set[Tuple[str, int]]
                     ) -> ClientSpreadReport:
    """Count distinct querying clients per resolved name."""
    clients_by_name: Dict[str, Set[int]] = {}
    for entry in dataset.below:
        if not entry.is_answer or entry.client_id is None:
            continue
        clients_by_name.setdefault(entry.qname, set()).add(entry.client_id)
    disposable = []
    other = []
    for name, clients in clients_by_name.items():
        if name_matches_groups(name, disposable_groups):
            disposable.append(len(clients))
        else:
            other.append(len(clients))
    return ClientSpreadReport(
        day=dataset.day,
        disposable_counts=np.array(sorted(disposable), dtype=int),
        other_counts=np.array(sorted(other), dtype=int))


def chr_split(hit_rates: HitRateTable,
              disposable_groups: Set[Tuple[str, int]]) -> ChrSplit:
    """Split the day's CHR samples by (zone, depth) disposability."""
    disposable_records = []
    other_records = []
    for record in hit_rates.records():
        if name_matches_groups(record.key[0], disposable_groups):
            disposable_records.append(record)
        else:
            other_records.append(record)
    return ChrSplit(
        day=hit_rates.day,
        disposable=EmpiricalCdf.from_samples(
            hit_rates.chr_values(disposable_records)),
        non_disposable=EmpiricalCdf.from_samples(
            hit_rates.chr_values(other_records)))


# -- the one-call daily report (Section III) ------------------------------


def build_daily_report(dataset: FpDnsDataset,
                       hit_rates: Optional[HitRateTable] = None,
                       disposable_groups: Optional[Set[Tuple[str, int]]] = None,
                       suffix_list: Optional[SuffixList] = None,
                       top_n: int = 10) -> DailyTrafficReport:
    """Compute the full report for one fpDNS day."""
    if hit_rates is None:
        hit_rates = compute_hit_rates(dataset)
    suffixes = suffix_list or default_suffix_list()

    lookup_counts = hit_rates.lookup_counts()
    low_tail = (float(np.mean(lookup_counts < LOW_VOLUME_THRESHOLD))
                if lookup_counts.size else 0.0)

    # Top 2LDs by below-lookup volume.
    per_2ld: Dict[str, int] = {}
    for entry in dataset.below:
        if not entry.is_answer:
            continue
        two_ld = suffixes.effective_2ld(entry.qname)
        if two_ld is None:
            continue
        per_2ld[two_ld] = per_2ld.get(two_ld, 0) + 1
    top_zones = sorted(per_2ld.items(), key=lambda kv: -kv[1])[:top_n]

    queried = dataset.queried_domains()
    resolved = dataset.resolved_domains()
    rrs = dataset.distinct_rrs()

    disposable_queried = disposable_resolved = disposable_rr = None
    if disposable_groups is not None:
        disposable_queried = (sum(
            1 for name in queried
            if name_matches_groups(name, disposable_groups))
            / len(queried)) if queried else 0.0
        disposable_resolved = (sum(
            1 for name in resolved
            if name_matches_groups(name, disposable_groups))
            / len(resolved)) if resolved else 0.0
        disposable_rr = (sum(
            1 for (name, _, _) in rrs
            if name_matches_groups(name, disposable_groups))
            / len(rrs)) if rrs else 0.0

    return DailyTrafficReport(
        day=dataset.day,
        volumes=day_summary(dataset),
        queried_domains=len(queried),
        resolved_domains=len(resolved),
        distinct_rrs=len(rrs),
        low_volume_tail_fraction=low_tail,
        zero_dhr_fraction=hit_rates.zero_dhr_fraction(),
        chr_median=hit_rates.chr_median(),
        top_zones=top_zones,
        disposable_queried_fraction=disposable_queried,
        disposable_resolved_fraction=disposable_resolved,
        disposable_rr_fraction=disposable_rr)
