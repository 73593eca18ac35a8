"""Tests for fpDNS/rpDNS dataset containers."""

import pytest

from repro.dns.message import RCode, RRType
from repro.core.records import FpDnsDataset, FpDnsEntry, RpDnsEntry


def entry(name, rdata=None, rcode=RCode.NOERROR, ts=0.0, client=1,
          qtype=RRType.A, ttl=300):
    if rcode is RCode.NXDOMAIN:
        return FpDnsEntry(ts, client, name, qtype, rcode)
    return FpDnsEntry(ts, client, name, qtype, rcode, ttl, rdata or "1.1.1.1")


class TestFpDnsEntry:
    def test_answer_has_key(self):
        e = entry("a.com", "9.9.9.9")
        assert e.is_answer
        assert e.rr_key() == ("a.com", RRType.A, "9.9.9.9")

    def test_nxdomain_has_no_key(self):
        e = entry("a.com", rcode=RCode.NXDOMAIN)
        assert not e.is_answer
        assert e.rr_key() is None


class TestFpDnsDataset:
    @pytest.fixture
    def ds(self):
        ds = FpDnsDataset(day="t")
        ds.below = [
            entry("a.com", "1.1.1.1", ts=0),
            entry("a.com", "1.1.1.1", ts=1),
            entry("b.com", "2.2.2.2", ts=2),
            entry("nx.com", rcode=RCode.NXDOMAIN, ts=3),
        ]
        ds.above = [
            entry("a.com", "1.1.1.1", ts=0, client=None, ttl=600),
            entry("nx.com", rcode=RCode.NXDOMAIN, ts=3, client=None),
        ]
        return ds

    def test_volumes(self, ds):
        assert ds.below_volume() == 4
        assert ds.above_volume() == 2

    def test_queried_vs_resolved(self, ds):
        assert ds.queried_domains() == {"a.com", "b.com", "nx.com"}
        assert ds.resolved_domains() == {"a.com", "b.com"}

    def test_distinct_rrs(self, ds):
        assert ds.distinct_rrs() == {("a.com", RRType.A, "1.1.1.1"),
                                     ("b.com", RRType.A, "2.2.2.2")}

    def test_counts_by_rr(self, ds):
        below = ds.below_counts_by_rr()
        assert below[("a.com", RRType.A, "1.1.1.1")] == 2
        above = ds.above_counts_by_rr()
        assert above[("a.com", RRType.A, "1.1.1.1")] == 1

    def test_nxdomain_volumes(self, ds):
        assert ds.nxdomain_volume_below() == 1
        assert ds.nxdomain_volume_above() == 1

    def test_ttls_prefer_above_observation(self, ds):
        ttls = ds.ttls_by_rr()
        # a.com was seen above with authoritative TTL 600.
        assert ttls[("a.com", RRType.A, "1.1.1.1")] == 600
        # b.com only seen below.
        assert ttls[("b.com", RRType.A, "2.2.2.2")] == 300

    def test_empty_dataset(self):
        ds = FpDnsDataset(day="empty")
        assert ds.queried_domains() == set()
        assert ds.distinct_rrs() == set()
        assert ds.nxdomain_volume_below() == 0


class TestRpDnsEntry:
    def test_key(self):
        e = RpDnsEntry("a.com", RRType.A, "1.1.1.1", "2011-11-28")
        assert e.rr_key() == ("a.com", RRType.A, "1.1.1.1")
