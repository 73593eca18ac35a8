"""Measurement analytics over fpDNS/rpDNS datasets — one module per
figure/table family of the paper's evaluation."""

from repro.analysis.cdf import EmpiricalCdf
from repro.analysis.clients import (ClientSpreadReport,
                                    clients_per_name_from_digest)
from repro.analysis.chrdist import (ChrSplit, chr_cdf, chr_cdf_for_zones,
                                    chr_split_from_digest)
from repro.analysis.dedup import DedupReport, NewRrDay, run_dedup_window
from repro.analysis.growth import GrowthPoint, GrowthSeries, growth_series
from repro.analysis.summary import (DailyTrafficReport,
                                    build_daily_report_from_digest)
from repro.analysis.tail import (LOW_VOLUME_THRESHOLD, TailRow, dhr_cdf,
                                 lookup_volume_distribution,
                                 lookup_volume_tail_row, zero_dhr_tail_row)
from repro.analysis.ttl import TTL_CLAMP, TtlHistogram, disposable_ttl_histogram
from repro.analysis.volume import (ZONE_GROUPS, DayVolumeSummary, VolumeSeries,
                                   day_summary_from_digest,
                                   hourly_volumes_from_digest)

__all__ = [
    "EmpiricalCdf",
    "ClientSpreadReport", "clients_per_name_from_digest",
    "ChrSplit", "chr_cdf", "chr_cdf_for_zones", "chr_split_from_digest",
    "DedupReport", "NewRrDay", "run_dedup_window",
    "GrowthPoint", "GrowthSeries", "growth_series",
    "DailyTrafficReport", "build_daily_report_from_digest",
    "LOW_VOLUME_THRESHOLD", "TailRow", "dhr_cdf",
    "lookup_volume_distribution", "lookup_volume_tail_row",
    "zero_dhr_tail_row",
    "TTL_CLAMP", "TtlHistogram", "disposable_ttl_histogram",
    "ZONE_GROUPS", "DayVolumeSummary", "VolumeSeries",
    "day_summary_from_digest", "hourly_volumes_from_digest",
]
