"""Tests for the Figure 14 TTL histogram analysis."""

import pytest

from repro.analysis.ttl import TTL_CLAMP, disposable_ttl_histogram
from repro.dns.message import RCode, RRType
from repro.core.records import FpDnsDataset, FpDnsEntry


def day(entries):
    ds = FpDnsDataset(day="t")
    for name, ttl in entries:
        ds.below.append(FpDnsEntry(0.0, 1, name, RRType.A, RCode.NOERROR,
                                   ttl, "1.1.1.1"))
    return ds


GROUPS = {("d.net", 3)}


class TestTtlHistogram:
    def test_counts_only_disposable(self):
        ds = day([("x1.d.net", 300), ("x2.d.net", 300), ("www.a.com", 60)])
        histogram = disposable_ttl_histogram(ds, GROUPS)
        assert histogram.counts == {300: 2}
        assert histogram.total == 2

    def test_mode_and_mean(self):
        ds = day([("x1.d.net", 300), ("x2.d.net", 300), ("x3.d.net", 60)])
        histogram = disposable_ttl_histogram(ds, GROUPS)
        assert histogram.mode() == 300
        assert histogram.mean() == pytest.approx(220.0)

    def test_fraction_at(self):
        ds = day([("x1.d.net", 1), ("x2.d.net", 300)])
        histogram = disposable_ttl_histogram(ds, GROUPS)
        assert histogram.fraction_at(1) == 0.5

    def test_clamp(self):
        ds = day([("x1.d.net", 500_000)])
        histogram = disposable_ttl_histogram(ds, GROUPS)
        assert histogram.counts == {TTL_CLAMP: 1}

    def test_log_buckets_cover_total(self):
        ds = day([("x1.d.net", 1), ("x2.d.net", 50), ("x3.d.net", 300),
                  ("x4.d.net", 5000), ("x5.d.net", 86400)])
        histogram = disposable_ttl_histogram(ds, GROUPS)
        buckets = histogram.log_buckets()
        assert sum(count for _, count in buckets) == 5

    def test_empty(self):
        histogram = disposable_ttl_histogram(day([]), GROUPS)
        assert histogram.total == 0
        assert histogram.mode() == 0
        assert histogram.mean() == 0.0
