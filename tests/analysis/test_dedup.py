"""Tests for the Figure 5 / Figure 15 dedup-window analysis."""

import pytest

from repro.analysis.dedup import run_dedup_window
from repro.dns.message import RCode, RRType
from repro.pdns.database import PassiveDnsDatabase
from repro.core.records import FpDnsDataset, FpDnsEntry


def day(label, names):
    ds = FpDnsDataset(day=label)
    for name in names:
        ds.below.append(FpDnsEntry(0.0, 1, name, RRType.A, RCode.NOERROR,
                                   300, "1.1.1.1"))
    return ds


GROUPS = {("d.net", 3)}


class TestDedupWindow:
    def test_new_rr_series(self):
        datasets = [
            day("d1", ["www.a.com", "x1.d.net", "x2.d.net"]),
            day("d2", ["www.a.com", "x3.d.net"]),      # 1 new
            day("d3", ["www.a.com", "x3.d.net"]),      # 0 new
        ]
        report = run_dedup_window(datasets, GROUPS)
        assert [d.new_total for d in report.days] == [3, 1, 0]

    def test_disposable_split(self):
        datasets = [day("d1", ["www.a.com", "x1.d.net"])]
        report = run_dedup_window(datasets, GROUPS)
        assert report.days[0].new_disposable == 1
        assert report.days[0].new_non_disposable == 1
        assert report.days[0].disposable_share == 0.5

    def test_totals(self):
        datasets = [
            day("d1", ["www.a.com", "x1.d.net"]),
            day("d2", ["x2.d.net"]),
        ]
        report = run_dedup_window(datasets, GROUPS)
        assert report.total_unique_rrs == 3
        assert report.disposable_unique_rrs == 2
        assert report.disposable_fraction == pytest.approx(2 / 3)

    def test_google_akamai_attribution(self):
        datasets = [day("d1", ["www.google.com", "e1.g0.akamai.net",
                               "www.plain.com"])]
        report = run_dedup_window(datasets, set())
        assert report.days[0].new_google == 1
        assert report.days[0].new_akamai == 1

    def test_overall_decline(self):
        datasets = [
            day("d1", [f"n{i}.a.com" for i in range(10)]),
            day("d2", [f"n{i}.a.com" for i in range(13)]),  # 3 new
        ]
        report = run_dedup_window(datasets, set())
        assert report.overall_decline() == pytest.approx(0.7)

    def test_shared_database_accumulates(self):
        db = PassiveDnsDatabase()
        run_dedup_window([day("d1", ["a.x.com"])], set(), database=db)
        report = run_dedup_window([day("d2", ["a.x.com", "b.x.com"])],
                                  set(), database=db)
        assert report.days[0].new_total == 1
        assert len(db) == 2
