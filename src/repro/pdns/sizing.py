"""fpDNS dataset storage sizing.

Section III-A: "the size of the compressed fpDNS dataset is around
60 GB per day in February, and around 145 GB per day in December,
2011" — a 2.4x growth at the same tap, driven by rising volume and by
disposable names being much longer than ordinary hostnames (more
bytes per record).  This module prices a simulated day the same way:
wire-format record sizes plus the collector's per-record metadata,
with a configurable compression factor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Set, Tuple

from repro.core.names import labels
from repro.core.groups import name_matches_groups
from repro.dns.message import ResourceRecord, RRType
from repro.dns.wire import encoded_name_size
from repro.pdns.database import PdnsBackend
from repro.core.records import FpDnsDataset, FpDnsEntry

__all__ = ["ENTRY_METADATA_BYTES", "DatabaseSizeReport",
           "DatasetSizeReport", "database_storage_report",
           "entry_storage_bytes", "estimate_dataset_size"]

# Per-record collection metadata: timestamp (8) + anonymised client id
# (8) + qtype/rcode/ttl fields (8).
ENTRY_METADATA_BYTES = 24
_NXDOMAIN_RDATA_BYTES = 0
_FIXED_RR_PART = 10


def entry_storage_bytes(entry: FpDnsEntry) -> int:
    """Stored size of one fpDNS record before compression."""
    size = ENTRY_METADATA_BYTES + encoded_name_size(entry.qname)
    if entry.is_answer:
        size += _FIXED_RR_PART
        if entry.qtype is RRType.A:
            size += 4
        elif entry.qtype is RRType.AAAA:
            size += 16
        elif entry.qtype is RRType.CNAME:
            size += encoded_name_size(entry.rdata)
        else:
            size += len(entry.rdata or "")
    return size


@dataclass
class DatasetSizeReport:
    """Byte accounting for one fpDNS day."""

    day: str
    raw_bytes: int
    compressed_bytes: int
    entries: int
    disposable_bytes: Optional[int] = None

    @property
    def mean_entry_bytes(self) -> float:
        return self.raw_bytes / self.entries if self.entries else 0.0

    @property
    def disposable_byte_share(self) -> Optional[float]:
        if self.disposable_bytes is None or not self.raw_bytes:
            return None
        return self.disposable_bytes / self.raw_bytes


def estimate_dataset_size(dataset: FpDnsDataset,
                          compression_ratio: float = 0.35,
                          disposable_groups: Optional[Set[Tuple[str, int]]]
                          = None) -> DatasetSizeReport:
    """Price one fpDNS day in bytes.

    ``compression_ratio`` is the compressed/raw factor (DNS logs
    compress well; ~0.35 is typical for gzip on name-heavy TSV).  When
    ``disposable_groups`` is given, the bytes attributable to
    disposable records are reported separately — the driver of the
    paper's 60→145 GB/day growth.
    """
    if not 0.0 < compression_ratio <= 1.0:
        raise ValueError(
            f"compression_ratio must be in (0, 1], got {compression_ratio}")
    raw = 0
    disposable = 0
    entries = 0
    for stream in (dataset.below, dataset.above):
        for entry in stream:
            size = entry_storage_bytes(entry)
            raw += size
            entries += 1
            if disposable_groups is not None and name_matches_groups(
                    entry.qname, disposable_groups):
                disposable += size
    return DatasetSizeReport(
        day=dataset.day, raw_bytes=raw,
        compressed_bytes=int(raw * compression_ratio),
        entries=entries,
        disposable_bytes=disposable if disposable_groups is not None
        else None)


# -- pDNS-DB storage (rpDNS rows, not the raw fpDNS stream) ------------


@dataclass
class DatabaseSizeReport:
    """Storage accounting for one passive-DNS database backend.

    ``source`` labels where the bytes come from: ``"measured"`` for a
    segmented on-disk store (real segment file sizes) or
    ``"row-model"`` for the in-memory database, whose bytes are the
    paper's fixed per-row estimate and must not be read as a
    measurement.
    """

    rows: int
    stored_bytes: int
    days: int
    source: str

    @property
    def bytes_per_row(self) -> float:
        return self.stored_bytes / self.rows if self.rows else 0.0

    def render(self) -> str:
        return (f"pDNS-DB: {self.rows} rows over {self.days} days, "
                f"{self.stored_bytes} bytes "
                f"({self.bytes_per_row:.1f} B/row, {self.source})")


def database_storage_report(database: PdnsBackend) -> DatabaseSizeReport:
    """Size one pDNS backend, preferring measured on-disk bytes.

    A :class:`~repro.pdns.store.SegmentedPdnsStore` reports its actual
    segment bytes; the in-memory database falls back to the paper's
    48-B/row model, labeled as such.
    """
    measured = bool(getattr(database, "storage_is_measured", False))
    return DatabaseSizeReport(
        rows=len(database),
        stored_bytes=database.storage_bytes(),
        days=len(database.ingested_days()),
        source="measured" if measured else "row-model")
