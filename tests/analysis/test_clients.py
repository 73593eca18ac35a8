"""Tests for the clients-per-name analysis."""

import numpy as np
import pytest

from repro.analysis.clients import clients_per_name_from_digest
from repro.core.interning import build_day_digest
from repro.dns.message import RCode, RRType
from repro.core.records import FpDnsDataset, FpDnsEntry


def entry(name, client, rcode=RCode.NOERROR):
    if rcode is RCode.NXDOMAIN:
        return FpDnsEntry(0.0, client, name, RRType.A, rcode)
    return FpDnsEntry(0.0, client, name, RRType.A, rcode, 300, "1.1.1.1")


GROUPS = {("d.net", 3)}


class TestClientsPerName:
    def test_distinct_client_counting(self):
        ds = FpDnsDataset(day="t")
        ds.below = [entry("www.a.com", 1), entry("www.a.com", 2),
                    entry("www.a.com", 2), entry("x1.d.net", 7)]
        report = clients_per_name_from_digest(build_day_digest(ds), GROUPS)
        assert report.other_counts.tolist() == [2]
        assert report.disposable_counts.tolist() == [1]

    def test_nxdomain_ignored(self):
        ds = FpDnsDataset(day="t")
        ds.below = [entry("nx.com", 1, rcode=RCode.NXDOMAIN),
                    entry("www.a.com", 1)]
        report = clients_per_name_from_digest(build_day_digest(ds), GROUPS)
        assert report.other_counts.size == 1

    def test_medians_and_handful(self):
        ds = FpDnsDataset(day="t")
        for client in range(10):
            ds.below.append(entry("www.hot.com", client))
        ds.below.extend([entry("x1.d.net", 1), entry("x2.d.net", 2)])
        report = clients_per_name_from_digest(build_day_digest(ds), GROUPS)
        assert report.other_median == 10
        assert report.disposable_median == 1
        assert report.disposable_handful_fraction() == 1.0
        assert report.spread_ratio() == pytest.approx(10.0)

    def test_empty_classes(self):
        report = clients_per_name_from_digest(
            build_day_digest(FpDnsDataset(day="t")), GROUPS)
        assert report.disposable_median == 0.0
        assert report.spread_ratio() == 0.0

    def test_simulated_day_disposable_handful(self, tiny_simulator,
                                              tiny_day):
        """Section I: disposable names are queried by a handful of
        clients while popular names spread across the base."""
        report = clients_per_name_from_digest(
            build_day_digest(tiny_day), tiny_simulator.disposable_truth())
        assert report.disposable_handful_fraction(3) > 0.9
        assert report.other_counts.max() > 10
        assert report.spread_ratio() > 1.0
