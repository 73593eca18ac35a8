"""Tests for the Figure 2 traffic-volume analysis."""

import numpy as np
import pytest

from repro.analysis.volume import (ZONE_GROUPS, day_summary_from_digest,
                                   hourly_volumes_from_digest)
from repro.core.interning import build_day_digest
from repro.dns.message import RCode, RRType
from repro.core.records import FpDnsDataset, FpDnsEntry


def entry(name, ts, rcode=RCode.NOERROR, client=1):
    if rcode is RCode.NXDOMAIN:
        return FpDnsEntry(ts, client, name, RRType.A, rcode)
    return FpDnsEntry(ts, client, name, RRType.A, rcode, 300, "1.1.1.1")


@pytest.fixture
def digest():
    ds = FpDnsDataset(day="t")
    ds.below = [
        entry("www.google.com", 10.0),
        entry("e1.g0.akamai.net", 20.0),
        entry("www.other.com", 5000.0),
        entry("nx.com", 5100.0, rcode=RCode.NXDOMAIN),
    ]
    ds.above = [
        entry("www.other.com", 5000.0, client=None),
        entry("nx.com", 5100.0, rcode=RCode.NXDOMAIN, client=None),
    ]
    return build_day_digest(ds)


class TestHourlyVolumes:
    def test_binning(self, digest):
        series = hourly_volumes_from_digest(digest, "below", n_bins=2,
                                            day_seconds=7200.0)
        assert series.total.tolist() == [2, 2]

    def test_component_series(self, digest):
        series = hourly_volumes_from_digest(digest, "below", n_bins=1,
                                            day_seconds=7200.0)
        assert series.nxdomain.tolist() == [1]
        assert series.google.tolist() == [1]
        assert series.akamai.tolist() == [1]

    def test_above_side(self, digest):
        series = hourly_volumes_from_digest(digest, "above", n_bins=1,
                                            day_seconds=7200.0)
        assert series.total.tolist() == [2]

    def test_rejects_bad_side(self, digest):
        with pytest.raises(ValueError):
            hourly_volumes_from_digest(digest, "sideways")

    def test_empty_dataset(self):
        series = hourly_volumes_from_digest(
            build_day_digest(FpDnsDataset(day="e")), "below", n_bins=4)
        assert series.total.tolist() == [0, 0, 0, 0]

    def test_peak_and_trough(self, digest):
        series = hourly_volumes_from_digest(digest, "below", n_bins=2,
                                            day_seconds=7200.0)
        assert series.peak_bin() in (0, 1)


class TestDaySummary:
    def test_aggregates(self, digest):
        summary = day_summary_from_digest(digest)
        assert summary.below_total == 4
        assert summary.above_total == 2
        assert summary.above_below_ratio == 0.5
        assert summary.nxdomain_share_below == 0.25
        assert summary.nxdomain_share_above == 0.5
        assert summary.google_akamai_share_below == 0.5

    def test_akamai_group_zones(self):
        # The footnote's full zone list must be covered.
        assert "edgesuite.net" in ZONE_GROUPS["akamai"]
        assert len(ZONE_GROUPS["akamai"]) == 8

    def test_empty_day(self):
        summary = day_summary_from_digest(
            build_day_digest(FpDnsDataset(day="e")))
        assert summary.above_below_ratio == 0.0
        assert summary.nxdomain_share_below == 0.0
