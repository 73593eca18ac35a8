"""Clients-per-name analysis.

Section I characterises disposable domains as "only queried a few
times by a handful of clients".  This module measures, from the
below-the-resolvers fpDNS stream, how many distinct clients queried
each resolved name, split by disposability — popular names are queried
by a large share of the subscriber base, disposable names by one or
two cohort members.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Set, Tuple

import numpy as np

from repro.core.interning import DayDigest
from repro.core.numeric import is_zero

__all__ = ["ClientSpreadReport", "clients_per_name_from_digest"]


@dataclass
class ClientSpreadReport:
    """Distinct-client counts per name, split by class."""

    day: str
    disposable_counts: np.ndarray
    other_counts: np.ndarray

    @property
    def disposable_median(self) -> float:
        if self.disposable_counts.size == 0:
            return 0.0
        return float(np.median(self.disposable_counts))

    @property
    def other_median(self) -> float:
        if self.other_counts.size == 0:
            return 0.0
        return float(np.median(self.other_counts))

    def disposable_handful_fraction(self, handful: int = 3) -> float:
        """Share of disposable names queried by <= ``handful`` clients."""
        if self.disposable_counts.size == 0:
            return 0.0
        return float(np.mean(self.disposable_counts <= handful))

    def spread_ratio(self) -> float:
        """Mean clients-per-name, non-disposable over disposable."""
        if (self.disposable_counts.size == 0
                or is_zero(float(self.disposable_counts.mean()))):
            return 0.0
        return float(self.other_counts.mean()
                     / self.disposable_counts.mean())


def clients_per_name_from_digest(digest: DayDigest,
                                 disposable_groups: Set[Tuple[str, int]]
                                 ) -> ClientSpreadReport:
    """Count distinct querying clients per resolved name.

    Distinct (name, client) pairs come from one ``np.unique`` over the
    packed id columns and the disposable split from the memoised
    per-name match mask; both count arrays are sorted.
    """
    name_ids, counts = digest.client_counts_by_name()
    disposable_mask = digest.names.match_mask(disposable_groups)[name_ids]
    return ClientSpreadReport(
        day=digest.day,
        disposable_counts=np.sort(counts[disposable_mask]).astype(int),
        other_counts=np.sort(counts[~disposable_mask]).astype(int))
