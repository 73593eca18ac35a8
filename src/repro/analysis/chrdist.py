"""Cache-hit-rate distribution analyses (Figures 4 and 7).

Figure 4 shows the CHR distribution over all RRs is a skewed linear
CDF (58 % of CHR samples below 0.5 on the paper's day).  Figure 7
splits the distribution by zone class: ~90 % of disposable CHR samples
are exactly zero while non-disposable zones keep a "natural" spread
(45 % of samples above 0.58).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Set, Tuple

from repro.analysis.cdf import EmpiricalCdf
from repro.core.hitrate import HitRateTable, hit_rates_from_digest
from repro.core.interning import DayDigest
from repro.core.names import is_subdomain

__all__ = ["chr_cdf", "chr_cdf_for_zones", "ChrSplit",
           "chr_split_from_digest"]


def chr_cdf(hit_rates: HitRateTable) -> EmpiricalCdf:
    """CDF of all CHR samples for the day (Figure 4a)."""
    return EmpiricalCdf.from_samples(hit_rates.chr_values())


def chr_cdf_for_zones(hit_rates: HitRateTable,
                      zones: Iterable[str]) -> EmpiricalCdf:
    """CDF of CHR samples restricted to RRs under any of ``zones``."""
    zone_list = list(zones)
    records = hit_rates.filter(
        lambda key: any(is_subdomain(key[0], zone) for zone in zone_list))
    return EmpiricalCdf.from_samples(hit_rates.chr_values(records))


@dataclass(frozen=True)
class ChrSplit:
    """Disposable vs non-disposable CHR distributions (Figure 7)."""

    day: str
    disposable: EmpiricalCdf
    non_disposable: EmpiricalCdf

    @property
    def disposable_zero_fraction(self) -> float:
        """Paper: ~90 % of disposable CHR samples are zero."""
        return self.disposable.at(0.0)

    @property
    def non_disposable_median(self) -> float:
        return self.non_disposable.quantile(0.5)

    def non_disposable_fraction_above(self, threshold: float) -> float:
        """Paper: 45 % of non-disposable samples exceed 0.58."""
        return 1.0 - self.non_disposable.at(threshold)


def chr_split_from_digest(digest: DayDigest,
                          disposable_groups: Set[Tuple[str, int]],
                          hit_rates: Optional[HitRateTable] = None
                          ) -> ChrSplit:
    """Split the day's CHR samples by (zone, depth) disposability.

    Zone membership comes from one memoised per-name mask indexed by
    the RR identity table.
    """
    if hit_rates is None:
        hit_rates = hit_rates_from_digest(digest)
    mask = digest.names.match_mask(disposable_groups)
    disposable_records = []
    other_records = []
    for rid, key in enumerate(digest.rr_keys):
        record = hit_rates.get(key)
        if record is None:  # pragma: no cover - digest tables carry all keys
            continue
        if mask[digest.rr_name_ids[rid]]:
            disposable_records.append(record)
        else:
            other_records.append(record)
    return ChrSplit(
        day=digest.day,
        disposable=EmpiricalCdf.from_samples(
            hit_rates.chr_values(disposable_records)),
        non_disposable=EmpiricalCdf.from_samples(
            hit_rates.chr_values(other_records)))
