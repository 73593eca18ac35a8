"""Single-pass streaming construction of the daily mining inputs.

The batch pipeline (:func:`repro.core.interning.build_day_digest`,
then :func:`repro.core.ranking.build_tree_from_digest` +
:func:`repro.core.hitrate.hit_rates_from_digest`) holds a whole fpDNS
day in memory.  A deployed collector at an ISP tap cannot — the
authors' days ran 60-145 GB compressed — so this module builds the
identical artifacts incrementally from a stream of ``(side, entry)``
pairs (e.g. :func:`repro.pdns.io.iter_fpdns_entries`), holding only
the aggregates:

* per-RR below/above counters (the hit-rate table),
* the domain name tree of resolved names,
* day-level volume/NXDOMAIN counters.

``finish()`` yields the same tree + hit-rate table the batch path
produces, so Algorithm 1 runs unchanged on top;
:func:`mine_stream` wires the whole thing together.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.core.classifier.base import BinaryClassifier
from repro.core.features import FeatureExtractor
from repro.core.hitrate import HitRateTable, RRHitRate
from repro.core.miner import (DisposableZoneFinding, DisposableZoneMiner,
                              MinerConfig)
from repro.core.tree import DomainNameTree
from repro.core.dnstypes import RCode
from repro.core.records import FpDnsEntry, RRKey, rr_sort_key

__all__ = ["StreamStats", "StreamingDayBuilder", "mine_stream"]


@dataclass
class StreamStats:
    """Day-level counters maintained by the streaming builder."""

    below_entries: int = 0
    above_entries: int = 0
    below_nxdomain: int = 0
    above_nxdomain: int = 0
    resolved_names: int = 0   # distinct
    distinct_rrs: int = 0

    @property
    def above_below_ratio(self) -> float:
        return (self.above_entries / self.below_entries
                if self.below_entries else 0.0)


class StreamingDayBuilder:
    """Incrementally builds the tree and hit-rate table for one day."""

    def __init__(self, day: str = "") -> None:
        self.day = day
        self._below: Dict[RRKey, int] = {}
        self._above: Dict[RRKey, int] = {}
        self._tree = DomainNameTree()
        self._resolved: Set[str] = set()
        self.stats = StreamStats()
        self._finished = False

    def observe(self, side: str, entry: FpDnsEntry) -> None:
        """Feed one entry; ``side`` is ``"B"`` (below) or ``"A"``."""
        if self._finished:
            raise RuntimeError("builder already finished")
        if side == "B":
            self.stats.below_entries += 1
            if entry.rcode is RCode.NXDOMAIN:
                self.stats.below_nxdomain += 1
            key = entry.rr_key()
            if key is not None:
                self._below[key] = self._below.get(key, 0) + 1
                if entry.qname not in self._resolved:
                    self._resolved.add(entry.qname)
                    self._tree.add_domain(entry.qname)
        elif side == "A":
            self.stats.above_entries += 1
            if entry.rcode is RCode.NXDOMAIN:
                self.stats.above_nxdomain += 1
            key = entry.rr_key()
            if key is not None:
                self._above[key] = self._above.get(key, 0) + 1
        else:
            raise ValueError(f"side must be 'A' or 'B', got {side!r}")

    def observe_many(self, entries: Iterable[Tuple[str, FpDnsEntry]]) -> None:
        for side, entry in entries:
            self.observe(side, entry)

    def finish(self) -> Tuple[DomainNameTree, HitRateTable]:
        """Seal the day and return (tree, hit-rate table)."""
        self._finished = True
        rates: Dict[RRKey, RRHitRate] = {}
        for key in sorted(set(self._below) | set(self._above),
                          key=rr_sort_key):
            rates[key] = RRHitRate(key=key,
                                   queries_below=self._below.get(key, 0),
                                   misses_above=self._above.get(key, 0))
        self.stats.resolved_names = len(self._resolved)
        self.stats.distinct_rrs = len(rates)
        return self._tree, HitRateTable(rates, day=self.day)


def mine_stream(entries: Iterable[Tuple[str, FpDnsEntry]],
                classifier: BinaryClassifier,
                config: Optional[MinerConfig] = None,
                day: str = "") -> Tuple[List[DisposableZoneFinding],
                                        StreamStats]:
    """One-pass mining: stream in, disposable findings out."""
    builder = StreamingDayBuilder(day=day)
    builder.observe_many(entries)
    tree, hit_rates = builder.finish()
    extractor = FeatureExtractor(tree, hit_rates)
    miner = DisposableZoneMiner(classifier, config or MinerConfig())
    findings = miner.mine(tree, extractor)
    return findings, builder.stats
