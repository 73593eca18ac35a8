"""TTL analysis for disposable domains (Figure 14).

The paper histograms the TTL values of disposable domains in February
vs December 2011: early in the year a large mass sits at TTL = 1 s,
by December the mode has moved to 300 s (operators learned that
near-zero TTLs get floored by resolver implementations anyway).
Values above 86 400 s are clamped into the last bucket, as in the
paper's plot.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Set, Tuple

import numpy as np

from repro.core.groups import name_matches_groups
from repro.core.records import FpDnsDataset

__all__ = ["TTL_CLAMP", "TtlHistogram", "disposable_ttl_histogram"]

TTL_CLAMP = 86_400


@dataclass
class TtlHistogram:
    """TTL value -> disposable-RR count for one day."""

    day: str
    counts: Dict[int, int]

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    def fraction_at(self, ttl: int) -> float:
        return self.counts.get(ttl, 0) / self.total if self.total else 0.0

    def mode(self) -> int:
        """The most common TTL value."""
        if not self.counts:
            return 0
        return max(self.counts, key=lambda ttl: (self.counts[ttl], -ttl))

    def mean(self) -> float:
        if not self.total:
            return 0.0
        return sum(ttl * count for ttl, count in self.counts.items()) / self.total

    def log_buckets(self) -> List[Tuple[int, int]]:
        """(bucket upper bound, count) over powers of 10, for plotting."""
        bounds = [1, 10, 100, 1_000, 10_000, TTL_CLAMP]
        out = []
        for low, high in zip([0] + bounds[:-1], bounds):
            count = sum(c for ttl, c in self.counts.items()
                        if low < ttl <= high)
            out.append((high, count))
        zero = self.counts.get(0, 0)
        if zero:
            out[0] = (out[0][0], out[0][1] + zero)
        return out


def disposable_ttl_histogram(dataset: FpDnsDataset,
                             disposable_groups: Set[Tuple[str, int]]
                             ) -> TtlHistogram:
    """Histogram the authoritative TTLs of the day's disposable RRs."""
    counts: Dict[int, int] = {}
    for key, ttl in dataset.ttls_by_rr().items():
        if not name_matches_groups(key[0], disposable_groups):
            continue
        clamped = min(ttl, TTL_CLAMP)
        counts[clamped] = counts.get(clamped, 0) + 1
    return TtlHistogram(day=dataset.day, counts=counts)
