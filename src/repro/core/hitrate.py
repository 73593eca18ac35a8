"""Domain hit rate (DHR) and cache hit rate (CHR) computation.

Implements the paper's black-box methodology (Section III-C2).  The
monitoring point sees answers *below* the resolvers (every answered
query) and *above* them (every cache miss), so for a resource record
observed in one day:

    DHR(rr) = cache hits / total queries
            = (below_count - above_count) / below_count          (Eq. 1)

Per-miss hit rates are unobservable from outside the black box, so the
renewal-process CHR is approximated by repeating the day's DHR once per
cache miss:

    CHR_i(rr) = DHR(rr),  i = 1..n,  n = misses that day          (Eq. 2)

The CHR *distribution* is the pool of all CHR_i values across records —
the signal that separates disposable from non-disposable zones (Fig. 7).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (TYPE_CHECKING, Callable, Dict, Iterable, List, Mapping,
                    Optional)

import numpy as np

from repro.core.records import RRKey

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.core.interning import DayDigest

__all__ = ["RRHitRate", "HitRateTable", "hit_rates_from_digest"]


@dataclass(frozen=True)
class RRHitRate:
    """Per-RR daily hit-rate statistics."""

    key: RRKey
    queries_below: int
    misses_above: int

    @property
    def hits(self) -> int:
        return max(0, self.queries_below - self.misses_above)

    @property
    def domain_hit_rate(self) -> float:
        """Eq. 1; zero when the record was never answered below."""
        if self.queries_below <= 0:
            return 0.0
        return self.hits / self.queries_below

    def chr_samples(self) -> List[float]:
        """Eq. 2: the day's DHR repeated once per cache miss."""
        return [self.domain_hit_rate] * self.misses_above


class HitRateTable:
    """All per-RR hit rates for one fpDNS day, with aggregation helpers."""

    def __init__(self, rates: Mapping[RRKey, RRHitRate], day: str = "") -> None:
        self._rates = dict(rates)
        self.day = day
        # name -> positions into the table order, built lazily: the
        # miner asks for_names() once per depth group, and a full-table
        # scan per group is quadratic over a day's mining run.
        self._name_positions: Optional[Dict[str, List[int]]] = None
        self._indexed_records: Optional[List[RRHitRate]] = None

    def __len__(self) -> int:
        return len(self._rates)

    def __contains__(self, key: RRKey) -> bool:
        return key in self._rates

    def get(self, key: RRKey) -> Optional[RRHitRate]:
        return self._rates.get(key)

    def records(self) -> List[RRHitRate]:
        return list(self._rates.values())

    # -- selections -----------------------------------------------------

    def for_names(self, names: Iterable[str]) -> List[RRHitRate]:
        """All RR hit rates whose owner name is in ``names``.

        Results keep table order (as if the whole table were scanned),
        but the scan is replaced by a lazily built name index, so the
        cost is proportional to the selection, not the table.
        """
        if self._name_positions is None or self._indexed_records is None:
            index: Dict[str, List[int]] = {}
            ordered: List[RRHitRate] = []
            for position, (key, rate) in enumerate(self._rates.items()):
                index.setdefault(key[0], []).append(position)
                ordered.append(rate)
            self._name_positions = index
            self._indexed_records = ordered
        positions: List[int] = []
        for name in sorted(set(names)):
            positions.extend(self._name_positions.get(name, ()))
        positions.sort()
        return [self._indexed_records[position] for position in positions]

    def filter(self, predicate: Callable[[RRKey], bool]) -> List[RRHitRate]:
        return [rate for key, rate in self._rates.items() if predicate(key)]

    # -- distributions ----------------------------------------------------

    def dhr_values(self, records: Optional[List[RRHitRate]] = None) -> np.ndarray:
        """Domain hit rates, one per RR (Figure 3b)."""
        source = self.records() if records is None else records
        return np.array([rate.domain_hit_rate for rate in source], dtype=float)

    def chr_values(self, records: Optional[List[RRHitRate]] = None) -> np.ndarray:
        """Pooled CHR samples, one per cache miss (Figures 4 and 7)."""
        source = self.records() if records is None else records
        samples: List[float] = []
        for rate in source:
            samples.extend(rate.chr_samples())
        return np.array(samples, dtype=float)

    def zero_dhr_fraction(self,
                          records: Optional[List[RRHitRate]] = None) -> float:
        values = self.dhr_values(records)
        if values.size == 0:
            return 0.0
        return float(np.mean(values == 0.0))

    def chr_median(self, records: Optional[List[RRHitRate]] = None) -> float:
        values = self.chr_values(records)
        if values.size == 0:
            return 0.0
        return float(np.median(values))

    def chr_zero_fraction(self,
                          records: Optional[List[RRHitRate]] = None) -> float:
        values = self.chr_values(records)
        if values.size == 0:
            return 1.0
        return float(np.mean(values == 0.0))

    def lookup_counts(self,
                      records: Optional[List[RRHitRate]] = None) -> np.ndarray:
        """Per-RR daily lookup volumes (Figure 3a)."""
        source = self.records() if records is None else records
        return np.array([rate.queries_below for rate in source], dtype=int)


def hit_rates_from_digest(digest: "DayDigest") -> HitRateTable:
    """Build the per-RR hit-rate table for one fpDNS day.

    Every RR interned by the digest was carried by at least one answer
    entry in one of the streams, so the RR id range is the day's key
    set: a record observed above but never below (e.g. prefetched and
    never re-asked within the day boundary) still appears, with zero
    queries below, and its DHR is 0 by convention.  The per-RR counts
    come from two ``bincount`` reductions over the digest columns, and
    the table iterates in deterministic RR-id order.
    """
    below_counts = digest.below_rr_counts().tolist()
    above_counts = digest.above_rr_counts().tolist()
    rates: Dict[RRKey, RRHitRate] = {
        key: RRHitRate(key=key, queries_below=below_counts[rid],
                       misses_above=above_counts[rid])
        for rid, key in enumerate(digest.rr_keys)}
    return HitRateTable(rates, day=digest.day)
