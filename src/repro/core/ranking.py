"""Daily disposable-zone ranking pipeline (Figure 10).

Ties the three stages together: (1) the fpDNS day is turned into a
domain name tree + hit-rate table by the *Domain Name Tree Builder*,
(2) the *Disposable Domain Classifier* (Algorithm 1) mines disposable
(zone, depth) groups, and (3) the *Disposable Zone Ranking* orders the
findings and computes the day's summary statistics — the per-day rows
behind Figures 11 and 13.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.core.classifier.base import BinaryClassifier
from repro.core.features import FeatureExtractor
from repro.core.groups import name_matches_groups
from repro.core.hitrate import (HitRateTable, compute_hit_rates,
                                hit_rates_from_digest)
from repro.core.interning import DayDigest
from repro.core.miner import (DisposableZoneFinding, DisposableZoneMiner,
                              MinerConfig)
from repro.core.names import label_count, parent
from repro.core.suffix import SuffixList, default_suffix_list
from repro.core.tree import DomainNameTree
from repro.core.records import FpDnsDataset

__all__ = ["DailyMiningResult", "DisposableZoneRanker", "build_tree_for_day",
           "build_tree_from_digest"]


def build_tree_for_day(dataset: FpDnsDataset) -> DomainNameTree:
    """Stage 1 (Domain Name Tree Builder): black nodes are the names
    that carried at least one RR below the resolvers that day."""
    tree = DomainNameTree()
    for name in dataset.resolved_domains():
        tree.add_domain(name)
    return tree


def build_tree_from_digest(digest: DayDigest) -> DomainNameTree:
    """Stage 1 over a columnar digest: the same black-node set, but
    inserted in deterministic name-id order (first-appearance order in
    the data) rather than ``set`` iteration order — so the resulting
    mining run is bit-identical across processes."""
    tree = DomainNameTree()
    for name in digest.resolved_names_ordered():
        tree.add_domain(name)
    return tree


@dataclass
class DailyMiningResult:
    """Output of one day's pipeline run."""

    day: str
    findings: List[DisposableZoneFinding]
    queried_domains: int
    resolved_domains: int
    distinct_rrs: int
    disposable_queried: int
    disposable_resolved: int
    disposable_rrs: int

    @property
    def groups(self) -> Set[Tuple[str, int]]:
        return {finding.as_group_key() for finding in self.findings}

    @property
    def disposable_2lds(self) -> Set[str]:
        """Distinct effective 2LDs covering the disposable zones."""
        suffixes = default_suffix_list()
        out = set()
        for finding in self.findings:
            two_ld = suffixes.effective_2ld(finding.zone)
            out.add(two_ld if two_ld is not None else finding.zone)
        return out

    @property
    def queried_fraction(self) -> float:
        return (self.disposable_queried / self.queried_domains
                if self.queried_domains else 0.0)

    @property
    def resolved_fraction(self) -> float:
        return (self.disposable_resolved / self.resolved_domains
                if self.resolved_domains else 0.0)

    @property
    def rr_fraction(self) -> float:
        return (self.disposable_rrs / self.distinct_rrs
                if self.distinct_rrs else 0.0)

    def ranked_findings(self) -> List[DisposableZoneFinding]:
        """Findings ranked by confidence, then by group size."""
        return sorted(self.findings,
                      key=lambda f: (-f.confidence, -f.group_size, f.zone))





class DisposableZoneRanker:
    """End-to-end daily pipeline runner."""

    def __init__(self, classifier: BinaryClassifier,
                 config: Optional[MinerConfig] = None,
                 suffix_list: Optional[SuffixList] = None) -> None:
        self.classifier = classifier
        self.config = config or MinerConfig()
        self.suffix_list = suffix_list or default_suffix_list()

    def run_day(self, dataset: FpDnsDataset,
                hit_rates: Optional[HitRateTable] = None) -> DailyMiningResult:
        """Run tree building, mining and ranking for one fpDNS day."""
        if hit_rates is None:
            hit_rates = compute_hit_rates(dataset)
        tree = build_tree_for_day(dataset)
        extractor = FeatureExtractor(tree, hit_rates)
        miner = DisposableZoneMiner(self.classifier, self.config,
                                    self.suffix_list)
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

    def run_digest(self, digest: DayDigest,
                   hit_rates: Optional[HitRateTable] = None
                   ) -> DailyMiningResult:
        """Columnar counterpart of :meth:`run_day`.

        Consumes a prebuilt :class:`~repro.core.interning.DayDigest`:
        tree and hit-rate table come from the digest columns, and the
        day-coverage statistics from one memoised per-name match mask
        instead of three full ``name_matches_groups`` sweeps.  Output
        is equivalent to :meth:`run_day` on the same day (identical
        finding set, confidences and counts); the findings order is
        the digest's deterministic traversal order.
        """
        if hit_rates is None:
            hit_rates = hit_rates_from_digest(digest)
        tree = build_tree_from_digest(digest)
        extractor = FeatureExtractor(tree, hit_rates)
        miner = DisposableZoneMiner(self.classifier, self.config,
                                    self.suffix_list)
        findings = miner.mine(tree, extractor,
                              roots=digest.mining_roots(self.suffix_list))
        groups = DisposableZoneMiner.findings_as_groups(findings)
        disposable_queried, disposable_resolved, disposable_rrs = (
            digest.match_counts(groups))
        return DailyMiningResult(
            day=digest.day, findings=findings,
            queried_domains=int(digest.queried_name_ids().shape[0]),
            resolved_domains=int(digest.resolved_name_ids().shape[0]),
            distinct_rrs=digest.distinct_rr_count(),
            disposable_queried=disposable_queried,
            disposable_resolved=disposable_resolved,
            disposable_rrs=disposable_rrs)
