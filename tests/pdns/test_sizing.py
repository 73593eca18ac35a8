"""Tests for fpDNS dataset size estimation."""

import pytest

from repro.dns.message import RCode, RRType
from repro.core.records import FpDnsDataset, FpDnsEntry
from repro.pdns.database import PassiveDnsDatabase
from repro.pdns.sizing import (ENTRY_METADATA_BYTES, database_storage_report,
                               entry_storage_bytes, estimate_dataset_size)
from repro.pdns.store import SegmentedPdnsStore


def entry(name, rcode=RCode.NOERROR, qtype=RRType.A, rdata="1.1.1.1"):
    if rcode is RCode.NXDOMAIN:
        return FpDnsEntry(0.0, 1, name, qtype, rcode)
    return FpDnsEntry(0.0, 1, name, qtype, rcode, 300, rdata)


class TestEntryBytes:
    def test_a_record(self):
        size = entry_storage_bytes(entry("www.a.com"))
        # metadata + name(11) + fixed(10) + 4
        assert size == ENTRY_METADATA_BYTES + 11 + 10 + 4

    def test_nxdomain_smaller(self):
        assert entry_storage_bytes(entry("www.a.com",
                                         rcode=RCode.NXDOMAIN)) < \
            entry_storage_bytes(entry("www.a.com"))

    def test_aaaa_larger_than_a(self):
        assert entry_storage_bytes(entry("www.a.com", qtype=RRType.AAAA,
                                         rdata="::1")) > \
            entry_storage_bytes(entry("www.a.com"))

    def test_long_disposable_name_costs_more(self):
        long_name = ("load-0-p-01.up-1852280.mem-251379712-24440832-0-p-50."
                     "3302068.1222092134.device.trans.manage.esoft.com")
        assert entry_storage_bytes(entry(long_name)) > \
            2 * entry_storage_bytes(entry("www.a.com"))


class TestDatasetEstimate:
    @pytest.fixture
    def dataset(self):
        ds = FpDnsDataset(day="t")
        ds.below = [entry("www.a.com"), entry("x1.d.net")]
        ds.above = [entry("x1.d.net")]
        return ds

    def test_counts_both_streams(self, dataset):
        report = estimate_dataset_size(dataset)
        assert report.entries == 3
        assert report.raw_bytes > 0
        assert report.compressed_bytes < report.raw_bytes

    def test_disposable_attribution(self, dataset):
        report = estimate_dataset_size(dataset,
                                       disposable_groups={("d.net", 3)})
        assert report.disposable_bytes > 0
        assert 0.0 < report.disposable_byte_share < 1.0

    def test_no_attribution_by_default(self, dataset):
        report = estimate_dataset_size(dataset)
        assert report.disposable_bytes is None
        assert report.disposable_byte_share is None

    def test_rejects_bad_ratio(self, dataset):
        with pytest.raises(ValueError):
            estimate_dataset_size(dataset, compression_ratio=0.0)


class TestPaperGrowthClaim:
    def test_december_day_bigger_than_february(self):
        """Section III-A: the fpDNS dataset grows from ~60 GB/day (Feb)
        to ~145 GB/day (Dec) at the same tap.  At equal event counts
        the December day must still be larger in bytes per entry:
        disposable names are long, and their share grows.

        Uses a private simulator: the shared one's cache timeline must
        keep moving forward for the other tests."""
        from tests.conftest import tiny_simulator_config
        from repro.traffic.simulate import MeasurementDate, TraceSimulator

        simulator = TraceSimulator(tiny_simulator_config())
        feb = simulator.run_day(MeasurementDate("feb-size", 31, 0.0),
                                n_events=4_000)
        dec = simulator.run_day(MeasurementDate("dec-size", 363, 1.0),
                                n_events=4_000)
        feb_report = estimate_dataset_size(feb)
        dec_report = estimate_dataset_size(dec)
        assert dec_report.mean_entry_bytes > feb_report.mean_entry_bytes
        assert dec_report.raw_bytes > feb_report.raw_bytes

    def test_disposable_bytes_outweigh_their_share(self, tiny_simulator,
                                                   tiny_day):
        """Disposable records cost more bytes per record than average
        (their names are long), so their byte share exceeds nothing
        less than their record share would suggest."""
        truth = tiny_simulator.disposable_truth()
        report = estimate_dataset_size(tiny_day, disposable_groups=truth)
        from repro.core.groups import name_matches_groups
        n_disposable = sum(
            1 for stream in (tiny_day.below, tiny_day.above)
            for e in stream if name_matches_groups(e.qname, truth))
        record_share = n_disposable / report.entries
        assert report.disposable_byte_share > record_share


class TestDatabaseStorageReport:
    def test_row_model_fallback_is_labeled(self):
        db = PassiveDnsDatabase()
        db.ingest_rrs("2011-02-22", [("a.x.com", RRType.A, "1.1.1.1"),
                                     ("b.x.com", RRType.A, "1.1.1.2")])
        report = database_storage_report(db)
        assert report.source == "row-model"
        assert report.rows == 2
        assert report.stored_bytes == 2 * 48
        assert "row-model" in report.render()

    def test_segmented_store_reports_measured_bytes(self, tmp_path):
        store = SegmentedPdnsStore(tmp_path)
        store.ingest_rrs("2011-02-22", [("a.x.com", RRType.A, "1.1.1.1")])
        report = database_storage_report(store)
        assert report.source == "measured"
        on_disk = sum(path.stat().st_size
                      for path in tmp_path.glob("*.pdnsseg"))
        assert report.stored_bytes == on_disk
        assert "measured" in report.render()

    def test_empty_database(self):
        report = database_storage_report(PassiveDnsDatabase())
        assert report.rows == 0
        assert report.bytes_per_row == 0.0
