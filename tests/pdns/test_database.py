"""Tests for the passive-DNS database and wildcard aggregation."""

import pytest

from repro.dns.message import RRType
from repro.pdns.database import (ROW_BYTES, PassiveDnsDatabase,
                                 wildcard_aggregated_size, wildcard_name)
from repro.core.records import FpDnsDataset, FpDnsEntry
from repro.dns.message import RCode


def key(name, rdata="1.1.1.1"):
    return (name, RRType.A, rdata)


class TestWildcardName:
    def test_replaces_leftmost_label(self):
        assert wildcard_name("1022vr5.dns.xx.fbcdn.net") == \
            "*.dns.xx.fbcdn.net"

    def test_single_label(self):
        assert wildcard_name("com") == "*"


class TestIngestion:
    def test_first_ingest_all_new(self):
        db = PassiveDnsDatabase()
        report = db.ingest_rrs("d1", [key("a.com"), key("b.com")])
        assert report.new_records == 2
        assert report.duplicate_records == 0
        assert report.dedup_ratio == 1.0
        assert len(db) == 2

    def test_duplicates_not_restored(self):
        db = PassiveDnsDatabase()
        db.ingest_rrs("d1", [key("a.com")])
        report = db.ingest_rrs("d2", [key("a.com"), key("b.com")])
        assert report.new_records == 1
        assert report.duplicate_records == 1
        assert db.first_seen(key("a.com")) == "d1"

    def test_new_per_day_series(self):
        db = PassiveDnsDatabase()
        db.ingest_rrs("d1", [key("a.com"), key("b.com")])
        db.ingest_rrs("d2", [key("a.com"), key("c.com")])
        assert db.new_records_per_day() == {"d1": 2, "d2": 1}
        assert db.ingested_days() == ["d1", "d2"]

    def test_ingest_day_uses_distinct_rrs(self):
        ds = FpDnsDataset(day="d1")
        for _ in range(3):
            ds.below.append(FpDnsEntry(0.0, 1, "a.com", RRType.A,
                                       RCode.NOERROR, 300, "1.1.1.1"))
        db = PassiveDnsDatabase()
        report = db.ingest_day(ds)
        assert report.total_records_seen == 1
        assert report.new_records == 1

    def test_entries_reflect_first_seen(self):
        db = PassiveDnsDatabase()
        db.ingest_rrs("d1", [key("a.com")])
        entries = db.entries()
        assert entries[0].qname == "a.com"
        assert entries[0].first_seen == "d1"

    def test_storage_bytes(self):
        db = PassiveDnsDatabase()
        db.ingest_rrs("d1", [key("a.com"), key("b.com")])
        assert db.storage_bytes() == 2 * ROW_BYTES

    def test_empty_report(self):
        db = PassiveDnsDatabase()
        report = db.ingest_rrs("d1", [])
        assert report.dedup_ratio == 0.0


class TestWildcardAggregation:
    @pytest.fixture
    def db(self):
        db = PassiveDnsDatabase()
        disposable = [key(f"x{i}.dns.xx.fbcdn.net", rdata=f"r{i}")
                      for i in range(10)]
        normal = [key("www.bank.com"), key("mail.bank.com")]
        db.ingest_rrs("d1", disposable + normal)
        return db

    def test_aggregation_collapses_disposable(self, db):
        groups = {("dns.xx.fbcdn.net", 5)}
        # 10 disposable rows -> 1 wildcard row; 2 normal rows kept.
        assert wildcard_aggregated_size(db, groups) == 3

    def test_no_groups_keeps_everything(self, db):
        assert wildcard_aggregated_size(db, set()) == 12

    def test_depth_must_match(self, db):
        groups = {("dns.xx.fbcdn.net", 6)}  # wrong depth
        assert wildcard_aggregated_size(db, groups) == 12

    def test_contains(self, db):
        assert key("www.bank.com") in db
        assert key("ghost.org") not in db
