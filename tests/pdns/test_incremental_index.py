"""The database's incremental inverted indexes and the digest ingest.

Pre-existing behavior covered elsewhere (``test_database``,
``test_query``); this file pins the new contracts: the indexes are
maintained *during* ingestion (a query view stays current with no
rebuild), and ``ingest_digest`` deduplicates exactly like the legacy
``ingest_day``.
"""

import pytest

from repro.core.interning import build_day_digest
from repro.dns.message import RCode, RRType
from repro.pdns.database import PassiveDnsDatabase
from repro.pdns.query import PdnsQueryIndex
from repro.core.records import FpDnsDataset, FpDnsEntry


def _day(label, names_to_rdata):
    ds = FpDnsDataset(day=label)
    for ts, (name, rdata) in enumerate(names_to_rdata):
        ds.below.append(FpDnsEntry(
            timestamp=float(ts), client_id=1, qname=name, qtype=RRType.A,
            rcode=RCode.NOERROR, ttl=60, rdata=rdata))
    return ds


@pytest.fixture
def two_days():
    day1 = _day("2011-02-01", [("a.example.com", "1.1.1.1"),
                               ("b.example.com", "1.1.1.1"),
                               ("a.example.com", "1.1.1.1"),  # duplicate
                               ("x.other.org", "2.2.2.2")])
    day2 = _day("2011-02-02", [("a.example.com", "1.1.1.1"),  # known RR
                               ("a.example.com", "3.3.3.3"),  # new rdata
                               ("new.example.com", "1.1.1.1")])
    return day1, day2


class TestIngestDigest:
    def test_matches_legacy_ingest_day(self, two_days):
        legacy_db, digest_db = PassiveDnsDatabase(), PassiveDnsDatabase()
        for day in two_days:
            legacy_report = legacy_db.ingest_day(day)
            digest_report = digest_db.ingest_digest(build_day_digest(day))
            assert digest_report == legacy_report
        assert set(legacy_db.rr_keys()) == set(digest_db.rr_keys())
        assert legacy_db.new_records_per_day() == \
            digest_db.new_records_per_day()
        for key in legacy_db.rr_keys():
            assert digest_db.first_seen(key) == legacy_db.first_seen(key)

    def test_matches_on_simulated_day(self, tiny_day):
        legacy_db, digest_db = PassiveDnsDatabase(), PassiveDnsDatabase()
        legacy_report = legacy_db.ingest_day(tiny_day)
        digest_report = digest_db.ingest_digest(build_day_digest(tiny_day))
        assert digest_report == legacy_report
        assert digest_report.new_records > 0
        assert set(legacy_db.rr_keys()) == set(digest_db.rr_keys())


class TestIncrementalIndexes:
    def test_accessors_after_single_ingest(self, two_days):
        db = PassiveDnsDatabase()
        db.ingest_day(two_days[0])
        assert {e.rr_key() for e in db.entries_for_name("a.example.com")} == \
            {("a.example.com", RRType.A, "1.1.1.1")}
        assert {e.qname for e in db.entries_for_rdata("1.1.1.1")} == \
            {"a.example.com", "b.example.com"}
        assert db.names_under_zone("example.com") == \
            {"a.example.com", "b.example.com"}
        assert db.names_under_zone("com") == \
            {"a.example.com", "b.example.com"}
        # The zone itself is not its own strict descendant.
        assert "example.com" not in db.names_under_zone("example.com")

    def test_index_stats_track_table(self, two_days):
        db = PassiveDnsDatabase()
        db.ingest_day(two_days[0])
        records, names, rdata, zones = db.index_stats()
        assert records == len(db)
        assert names == len({e.qname for e in db.entries()})
        assert rdata == len({e.rdata for e in db.entries()})
        assert zones > 0

    def test_query_view_stays_current_across_ingests(self, two_days):
        """The new contract: a PdnsQueryIndex built *before* further
        ingestion reflects later records with no rebuild."""
        db = PassiveDnsDatabase()
        index = PdnsQueryIndex(db)  # built over an empty database
        db.ingest_day(two_days[0])
        assert index.names_for_rdata("1.1.1.1") == \
            ["a.example.com", "b.example.com"]
        before = index.stats()

        db.ingest_day(two_days[1])
        history = index.history_for_name("a.example.com")
        assert [(e.rdata, e.first_seen) for e in history] == \
            [("1.1.1.1", "2011-02-01"), ("3.3.3.3", "2011-02-02")]
        assert "new.example.com" in index.names_under_zone("example.com")
        after = index.stats()
        assert after.records == before.records + 2
        assert after.distinct_rdata == before.distinct_rdata + 1

    def test_cooccurrence_via_live_view(self, two_days):
        db = PassiveDnsDatabase()
        index = PdnsQueryIndex(db)
        db.ingest_day(two_days[0])
        db.ingest_day(two_days[1])
        assert index.cooccurring_names("a.example.com") == \
            ["b.example.com", "new.example.com"]
