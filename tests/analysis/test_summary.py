"""Tests for the daily traffic report."""

import pytest

from repro.analysis.summary import build_daily_report_from_digest
from repro.core.interning import build_day_digest
from repro.dns.message import RCode, RRType
from repro.core.records import FpDnsDataset, FpDnsEntry


def entry(name, client=1, rcode=RCode.NOERROR, rdata="1.1.1.1"):
    if rcode is RCode.NXDOMAIN:
        return FpDnsEntry(0.0, client, name, RRType.A, rcode)
    return FpDnsEntry(0.0, client, name, RRType.A, rcode, 300, rdata)


@pytest.fixture
def digest():
    ds = FpDnsDataset(day="t")
    for i in range(20):
        ds.below.append(entry("www.hot.com", client=i))
    ds.below.append(entry("x1.d.net"))
    ds.below.append(entry("nx.com", rcode=RCode.NXDOMAIN))
    ds.above.append(entry("www.hot.com", client=None))
    ds.above.append(entry("x1.d.net", client=None))
    return build_day_digest(ds)


class TestBuildDailyReport:
    def test_basic_counts(self, digest):
        report = build_daily_report_from_digest(digest)
        assert report.day == "t"
        assert report.volumes.below_total == 22
        assert report.volumes.above_total == 2
        assert report.queried_domains == 3
        assert report.resolved_domains == 2
        assert report.distinct_rrs == 2

    def test_top_zones(self, digest):
        report = build_daily_report_from_digest(digest)
        assert report.top_zones[0] == ("hot.com", 20)

    def test_disposable_annotation(self, digest):
        report = build_daily_report_from_digest(
            digest, disposable_groups={("d.net", 3)})
        assert report.disposable_resolved_fraction == pytest.approx(0.5)
        assert report.disposable_queried_fraction == pytest.approx(1 / 3)
        assert report.disposable_rr_fraction == pytest.approx(0.5)

    def test_no_annotation_by_default(self, digest):
        report = build_daily_report_from_digest(digest)
        assert report.disposable_resolved_fraction is None

    def test_render_plain(self, digest):
        text = build_daily_report_from_digest(digest).render()
        assert "Daily traffic report — t" in text
        assert "hot.com" in text
        assert "disposable" not in text

    def test_render_annotated(self, digest):
        text = build_daily_report_from_digest(
            digest, disposable_groups={("d.net", 3)}).render()
        assert "disposable share of resolved names" in text

    def test_on_simulated_day(self, tiny_simulator, tiny_day):
        report = build_daily_report_from_digest(
            build_day_digest(tiny_day),
            disposable_groups=tiny_simulator.disposable_truth())
        assert report.low_volume_tail_fraction > 0.8
        assert report.zero_dhr_fraction > 0.5
        assert 0.0 < report.disposable_resolved_fraction < 1.0
        assert len(report.top_zones) == 10

    def test_empty_day(self):
        report = build_daily_report_from_digest(
            build_day_digest(FpDnsDataset(day="empty")))
        assert report.distinct_rrs == 0
        assert report.top_zones == []
        assert "Daily traffic report" in report.render()
