"""Passive DNS collection: fpDNS/rpDNS datasets, the monitoring tap,
and the deduplicating passive-DNS database."""

from repro.pdns.collector import PassiveDnsCollector
from repro.pdns.columnar import (ColumnarFpDnsDataset, load_fpdns2,
                                 save_fpdns2)
from repro.pdns.database import (IngestReport, PassiveDnsDatabase,
                                 PdnsBackend, wildcard_aggregated_size,
                                 wildcard_name)
from repro.pdns.io import (FormatError, iter_fpdns_entries, load_fpdns,
                           save_fpdns)
from repro.pdns.query import IndexStats, PdnsQueryIndex
from repro.pdns.segments import (Segment, SegmentMeta, build_segment_bytes,
                                 open_segment)
from repro.pdns.sizing import (DatabaseSizeReport, DatasetSizeReport,
                               database_storage_report,
                               entry_storage_bytes, estimate_dataset_size)
from repro.pdns.store import (CompactionReport, SegmentedPdnsStore,
                              StoreStats)
from repro.core.records import FpDnsDataset, FpDnsEntry, RpDnsEntry, RRKey

__all__ = [
    "PassiveDnsCollector",
    "IngestReport", "PassiveDnsDatabase", "PdnsBackend",
    "wildcard_aggregated_size", "wildcard_name",
    "FpDnsDataset", "FpDnsEntry", "RpDnsEntry", "RRKey",
    "FormatError", "iter_fpdns_entries", "load_fpdns", "save_fpdns",
    "ColumnarFpDnsDataset", "load_fpdns2", "save_fpdns2",
    "IndexStats", "PdnsQueryIndex",
    "Segment", "SegmentMeta", "build_segment_bytes", "open_segment",
    "CompactionReport", "SegmentedPdnsStore", "StoreStats",
    "DatabaseSizeReport", "DatasetSizeReport", "database_storage_report",
    "entry_storage_bytes", "estimate_dataset_size",
]
