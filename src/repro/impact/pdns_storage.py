"""Passive-DNS storage study (Section VI-C).

After bootstrapping a pDNS-DB over the 13-day window, the paper found
88 % of all stored unique RRs were disposable and the daily share of
new disposable RRs rose from 68 % to 94 %; collapsing disposable names
onto wildcard rows shrank 129.7 M rows to 0.9 M (0.7 %).  The study
ingests a simulated window, measures the same quantities, and applies
the wildcard mitigation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Set, Tuple

from repro.analysis.dedup import DedupReport, run_dedup_window
from repro.pdns.database import (ROW_BYTES, PassiveDnsDatabase,
                                 PdnsBackend, wildcard_aggregated_size)
from repro.core.records import FpDnsDataset

__all__ = ["PdnsStorageResult", "run_pdns_storage_study"]


@dataclass
class PdnsStorageResult:
    """Outcome of the storage study.

    ``bytes_before`` is the backend's own accounting: the paper's
    48-bytes-per-row model for the in-memory database, *measured*
    on-disk segment bytes for the segmented store
    (``bytes_measured=True`` tells the two apart; the wildcard
    projection always uses the row model, since aggregation is a
    hypothetical rewrite).
    """

    dedup: DedupReport
    rows_before: int
    rows_after_wildcard: int
    bytes_before: int
    bytes_after_wildcard: int
    bytes_measured: bool = False

    @property
    def reduction_ratio(self) -> float:
        """Remaining fraction of the whole store after aggregation."""
        if not self.rows_before:
            return 0.0
        return self.rows_after_wildcard / self.rows_before

    @property
    def disposable_rows_before(self) -> int:
        return self.dedup.disposable_unique_rrs

    @property
    def disposable_reduction_ratio(self) -> float:
        """Remaining fraction of the *disposable* rows — the paper's
        headline number (129,674,213 -> 945,065 = 0.7 %)."""
        disposable = self.disposable_rows_before
        if not disposable:
            return 0.0
        non_disposable = self.rows_before - disposable
        wildcard_rows = self.rows_after_wildcard - non_disposable
        return max(wildcard_rows, 0) / disposable

    @property
    def disposable_fraction(self) -> float:
        return self.dedup.disposable_fraction

    def first_to_last_disposable_share(self) -> Tuple[float, float]:
        """Daily new-RR disposable share on first vs last window day."""
        return (self.dedup.first_day.disposable_share,
                self.dedup.last_day.disposable_share)


def run_pdns_storage_study(datasets: Sequence[FpDnsDataset],
                           disposable_groups: Set[Tuple[str, int]],
                           database: Optional[PdnsBackend] = None
                           ) -> PdnsStorageResult:
    """Ingest ``datasets`` into a fresh pDNS-DB and apply the
    wildcard-aggregation mitigation.

    ``database`` may be any empty :class:`~repro.pdns.database.
    PdnsBackend` — the in-memory database (default) or a
    :class:`~repro.pdns.store.SegmentedPdnsStore`, whose
    ``bytes_before`` is then real on-disk bytes rather than the
    row-model estimate.
    """
    backend: PdnsBackend = (database if database is not None
                            else PassiveDnsDatabase())
    measured = bool(getattr(backend, "storage_is_measured", False))
    dedup = run_dedup_window(datasets, disposable_groups, database=backend)
    rows_before = len(backend)
    rows_after = wildcard_aggregated_size(backend, disposable_groups)
    return PdnsStorageResult(
        dedup=dedup,
        rows_before=rows_before,
        rows_after_wildcard=rows_after,
        bytes_before=backend.storage_bytes(),
        bytes_after_wildcard=rows_after * ROW_BYTES,
        bytes_measured=measured)
