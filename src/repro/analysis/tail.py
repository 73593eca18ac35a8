"""Long-tail analyses: lookup volume and domain hit rate (Figure 3,
Tables I and II).

The paper defines two tails over the day's resource records:

* the **lookup-volume tail** — RRs with fewer than 10 lookups per day
  (>90 % of all RRs, growing to 94 % across 2011), and
* the **zero-DHR tail** — RRs with domain hit rate exactly 0
  (89 % growing to 93 %).

Tables I and II then split each tail by disposability: what fraction
of the tail is disposable RRs, and what fraction of disposable RRs
lives in the tail (96-98 %).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Sequence, Set, Tuple

import numpy as np

from repro.analysis.cdf import EmpiricalCdf
from repro.core.hitrate import HitRateTable, RRHitRate
from repro.core.numeric import is_zero
from repro.core.groups import name_matches_groups
from repro.core.records import RRKey

__all__ = ["LOW_VOLUME_THRESHOLD", "TailRow", "lookup_volume_distribution",
           "dhr_cdf", "lookup_volume_tail_row", "zero_dhr_tail_row"]

LOW_VOLUME_THRESHOLD = 10  # "fewer than 10 lookups per day"


def lookup_volume_distribution(hit_rates: HitRateTable) -> np.ndarray:
    """Per-RR lookup volumes sorted descending (Figure 3a's curve)."""
    counts = hit_rates.lookup_counts()
    return np.sort(counts)[::-1]


def dhr_cdf(hit_rates: HitRateTable) -> EmpiricalCdf:
    """CDF of domain hit rates over all RRs (Figure 3b)."""
    return EmpiricalCdf.from_samples(hit_rates.dhr_values())


@dataclass(frozen=True)
class TailRow:
    """One row of Table I / Table II."""

    day: str
    tail_fraction: float          # share of all RRs that are in the tail
    disposable_share_of_tail: float
    disposable_in_tail_fraction: float  # share of disposable RRs in the tail
    tail_size: int
    disposable_tail_size: int
    n_rrs: int


def _tail_row(day: str, records: Sequence[RRHitRate],
              in_tail: Callable[[RRHitRate], bool],
              is_disposable: Callable[[RRKey], bool]) -> TailRow:
    n_rrs = len(records)
    tail = [record for record in records if in_tail(record)]
    disposable_tail = [record for record in tail
                       if is_disposable(record.key)]
    n_disposable = sum(1 for record in records if is_disposable(record.key))
    return TailRow(
        day=day,
        tail_fraction=len(tail) / n_rrs if n_rrs else 0.0,
        disposable_share_of_tail=(len(disposable_tail) / len(tail)
                                  if tail else 0.0),
        disposable_in_tail_fraction=(len(disposable_tail) / n_disposable
                                     if n_disposable else 0.0),
        tail_size=len(tail),
        disposable_tail_size=len(disposable_tail),
        n_rrs=n_rrs)


def lookup_volume_tail_row(hit_rates: HitRateTable,
                           disposable_groups: Set[Tuple[str, int]],
                           threshold: int = LOW_VOLUME_THRESHOLD) -> TailRow:
    """Table I row: the low-lookup-volume tail split by disposability."""
    return _tail_row(
        hit_rates.day, hit_rates.records(),
        in_tail=lambda record: record.queries_below < threshold,
        is_disposable=lambda key: name_matches_groups(key[0],
                                                      disposable_groups))


def zero_dhr_tail_row(hit_rates: HitRateTable,
                      disposable_groups: Set[Tuple[str, int]]) -> TailRow:
    """Table II row: the zero-domain-hit-rate tail split by disposability."""
    return _tail_row(
        hit_rates.day, hit_rates.records(),
        in_tail=lambda record: is_zero(record.domain_hit_rate),
        is_disposable=lambda key: name_matches_groups(key[0],
                                                      disposable_groups))
