"""Tests for the pDNS forensic query index."""

import pytest

from repro.dns.message import RRType
from repro.pdns.database import PassiveDnsDatabase
from repro.pdns.query import PdnsQueryIndex


@pytest.fixture
def index():
    db = PassiveDnsDatabase()
    db.ingest_rrs("2011-11-28", [
        ("www.evil.com", RRType.A, "6.6.6.6"),
        ("cdn.evil.com", RRType.A, "6.6.6.7"),
    ])
    db.ingest_rrs("2011-11-29", [
        ("www.evil.com", RRType.A, "7.7.7.7"),      # moved infrastructure
        ("innocent.org", RRType.A, "6.6.6.6"),      # shared hosting
        ("x1.d.net", RRType.A, "1.1.1.1"),
    ])
    return PdnsQueryIndex(db)


class TestHistory:
    def test_history_for_name_sorted(self, index):
        history = index.history_for_name("www.evil.com")
        assert [e.rdata for e in history] == ["6.6.6.6", "7.7.7.7"]
        assert [e.first_seen for e in history] == ["2011-11-28",
                                                   "2011-11-29"]

    def test_case_and_dot_insensitive(self, index):
        assert index.history_for_name("WWW.Evil.COM.")

    def test_unknown_name_empty(self, index):
        assert index.history_for_name("nope.org") == []

    def test_first_seen(self, index):
        assert index.first_seen("www.evil.com") == "2011-11-28"
        assert index.first_seen("nope.org") is None


class TestPivots:
    def test_names_for_rdata(self, index):
        assert index.names_for_rdata("6.6.6.6") == ["innocent.org",
                                                    "www.evil.com"]

    def test_names_under_zone(self, index):
        assert index.names_under_zone("evil.com") == ["cdn.evil.com",
                                                      "www.evil.com"]
        assert index.names_under_zone("com") == ["cdn.evil.com",
                                                 "www.evil.com"]

    def test_cooccurring_names(self, index):
        related = index.cooccurring_names("www.evil.com")
        assert "innocent.org" in related
        assert "www.evil.com" not in related

    def test_stats(self, index):
        stats = index.stats()
        assert stats.records == 5
        assert stats.distinct_names == 4
        assert stats.distinct_rdata == 4
        assert stats.distinct_zones >= 4


class TestDisposableBloat:
    def test_disposable_churn_inflates_index(self, tiny_simulator,
                                             tiny_day):
        """The Section VI-C concern: disposable records dominate the
        forensic indexes an analyst has to store and search."""
        from repro.core.groups import name_matches_groups

        truth = tiny_simulator.disposable_truth()
        full_db = PassiveDnsDatabase()
        full_db.ingest_day(tiny_day)
        full = PdnsQueryIndex(full_db).stats()

        lean_db = PassiveDnsDatabase()
        lean_keys = [key for key in full_db.rr_keys()
                     if not name_matches_groups(key[0], truth)]
        lean_db.ingest_rrs(tiny_day.day, lean_keys)
        lean = PdnsQueryIndex(lean_db).stats()

        assert full.records > 1.5 * lean.records
        assert full.distinct_names > 1.5 * lean.distinct_names

    def test_zone_pivot_finds_disposable_bulk(self, tiny_simulator,
                                              tiny_day):
        """'Everything under avqs.mcafee.com' — the forensic pivot an
        analyst uses on a flagged zone — returns the bulk names."""
        db = PassiveDnsDatabase()
        db.ingest_day(tiny_day)
        index = PdnsQueryIndex(db)
        under = index.names_under_zone("avqs.mcafee.com")
        assert len(under) > 10
        assert all(name.endswith(".avqs.mcafee.com") for name in under)
