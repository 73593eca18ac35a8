"""Tests for the fpDNS-v2 binary columnar format.

The gzip-TSV format (:mod:`repro.pdns.io`) is the oracle: every
round-trip assertion compares the columnar load against the plain
dataset (entry lists, digest columns).
"""

import numpy as np
import pytest

from repro.core.container import FormatError
from repro.core.interning import STREAM_FIELDS, build_day_digest
from repro.dns.message import RCode, RRType
from repro.pdns.columnar import (FPDNS2_MAGIC, FPDNS2_VERSION,
                                 ColumnarFpDnsDataset, dumps_fpdns2,
                                 load_fpdns2, loads_fpdns2, save_fpdns2)
from repro.pdns.records import FpDnsDataset, FpDnsEntry


@pytest.fixture
def dataset():
    """A day exercising every encoding edge: absent client/ttl/rdata,
    failure rows that still carry rdata (not representable in the
    digest proper), duplicate RRs across streams."""
    ds = FpDnsDataset(day="2011-12-01")
    ds.below = [
        FpDnsEntry(10.123456789, 3, "www.a.com", RRType.A, RCode.NOERROR,
                   300, "1.1.1.1"),
        FpDnsEntry(11.0, 4, "nx.b.com", RRType.A, RCode.NXDOMAIN),
        FpDnsEntry(12.0, None, "h.c.com", RRType.AAAA, RCode.NOERROR, 60,
                   "aa:bb::1"),
        FpDnsEntry(12.5, 5, "odd.d.com", RRType.CNAME, RCode.SERVFAIL,
                   None, "stale-rdata"),
        FpDnsEntry(13.0, 5, "odd.d.com", RRType.CNAME, RCode.SERVFAIL,
                   None, "stale-rdata"),
    ]
    ds.above = [
        FpDnsEntry(10.5, None, "www.a.com", RRType.A, RCode.NOERROR, 600,
                   "1.1.1.1"),
        FpDnsEntry(11.5, None, "nx.b.com", RRType.A, RCode.NXDOMAIN),
    ]
    return ds


def assert_digest_equal(built, loaded):
    """Field-by-field digest comparison (DayDigest has no __eq__)."""
    assert built.day == loaded.day
    assert list(built.names.names) == list(loaded.names.names)
    assert built.rr_keys == loaded.rr_keys
    assert np.array_equal(built.rr_name_ids, loaded.rr_name_ids)
    for which in ("below", "above"):
        s1, s2 = getattr(built, which), getattr(loaded, which)
        for field in STREAM_FIELDS:
            a1, a2 = getattr(s1, field), getattr(s2, field)
            assert np.array_equal(a1, a2), (which, field)
            assert a1.dtype == a2.dtype, (which, field)


class TestRoundTrip:
    def test_exact_entry_roundtrip(self, dataset):
        loaded = loads_fpdns2(dumps_fpdns2(dataset))
        assert isinstance(loaded, ColumnarFpDnsDataset)
        assert loaded.day == dataset.day
        assert loaded.below == dataset.below
        assert loaded.above == dataset.above

    def test_equality_both_directions(self, dataset):
        loaded = loads_fpdns2(dumps_fpdns2(dataset))
        assert loaded == dataset
        assert dataset == loaded

    def test_digest_matches_built_digest(self, dataset):
        loaded = loads_fpdns2(dumps_fpdns2(dataset))
        assert_digest_equal(build_day_digest(dataset), loaded.day_digest())

    def test_reencode_without_materialization(self, dataset):
        loaded = loads_fpdns2(dumps_fpdns2(dataset))
        again = loads_fpdns2(dumps_fpdns2(loaded))
        assert loaded._below_entries is None  # never materialised
        assert again == dataset

    def test_lossless_timestamps(self, dataset):
        loaded = loads_fpdns2(dumps_fpdns2(dataset))
        assert loaded.below[0].timestamp == 10.123456789

    def test_empty_day(self):
        empty = FpDnsDataset(day="2011-01-01")
        loaded = loads_fpdns2(dumps_fpdns2(empty))
        assert loaded.below == []
        assert loaded.above == []
        assert loaded == empty

    def test_precomputed_digest_accepted(self, dataset):
        digest = build_day_digest(dataset)
        assert dumps_fpdns2(dataset, digest) == dumps_fpdns2(dataset)

    def test_simulated_day_roundtrip(self, tiny_day):
        loaded = loads_fpdns2(dumps_fpdns2(tiny_day))
        assert loaded.below == tiny_day.below
        assert loaded.above == tiny_day.above
        assert_digest_equal(build_day_digest(tiny_day),
                            loaded.day_digest())

    def test_file_roundtrip(self, dataset, tmp_path):
        path = tmp_path / "day.fpdns2"
        n_bytes = save_fpdns2(dataset, path)
        assert path.stat().st_size == n_bytes
        assert load_fpdns2(path) == dataset


class TestLazyViews:
    def test_columns_are_views_over_the_loaded_bytes(self, dataset):
        blob = dumps_fpdns2(dataset)
        stream = loads_fpdns2(blob).day_digest().below
        for field in STREAM_FIELDS:
            column = getattr(stream, field)
            assert not column.flags.owndata, field
            assert not column.flags.writeable, field

    def test_digest_access_does_not_materialize(self, dataset):
        loaded = loads_fpdns2(dumps_fpdns2(dataset))
        loaded.day_digest().queried_domains()
        assert loaded._below_entries is None
        assert loaded._above_entries is None

    def test_entry_access_materializes_once(self, dataset):
        loaded = loads_fpdns2(dumps_fpdns2(dataset))
        first = loaded.below
        assert first is loaded.below  # memoised
        assert first == dataset.below

    def test_repr_is_lazy(self, dataset):
        loaded = loads_fpdns2(dumps_fpdns2(dataset))
        text = repr(loaded)
        assert "2011-12-01" in text
        assert loaded._below_entries is None

    def test_aggregates_match_plain_dataset(self, dataset):
        loaded = loads_fpdns2(dumps_fpdns2(dataset))
        assert loaded.below_volume() == dataset.below_volume()
        assert loaded.above_volume() == dataset.above_volume()
        assert loaded.distinct_rrs() == dataset.distinct_rrs()
        assert loaded.nxdomain_volume_below() == \
            dataset.nxdomain_volume_below()


class TestCorruption:
    """Every corruption mode raises FormatError naming the source —
    which the artifact cache maps to a miss."""

    def test_bad_magic(self, dataset):
        data = b"#not-the-magic\n" + dumps_fpdns2(dataset)[len(FPDNS2_MAGIC):]
        with pytest.raises(FormatError, match="bad magic"):
            loads_fpdns2(data)

    def test_truncated_header(self):
        with pytest.raises(FormatError, match="truncated"):
            loads_fpdns2(FPDNS2_MAGIC + b'{"version":1')

    def test_bad_header_json(self):
        current = f'"version":{FPDNS2_VERSION}'
        for line in ("not json", "[1]", '"text"',
                     "{%s}" % current,
                     '{"payload_bytes":-1,%s}' % current,
                     '{"payload_bytes":"0",%s}' % current,
                     '{"payload_bytes":true,%s}' % current):
            with pytest.raises(FormatError, match="header"):
                loads_fpdns2(FPDNS2_MAGIC + line.encode() + b"\n")

    def test_wrong_version(self, dataset):
        data = dumps_fpdns2(dataset)
        current = f'"version":{FPDNS2_VERSION}'.encode()
        assert data.count(current) == 1
        # Version 1 (the npz payload) is rejected like any other.
        for version in (99, 1):
            stale = data.replace(current, f'"version":{version}'.encode())
            with pytest.raises(FormatError, match="version"):
                loads_fpdns2(stale)

    def test_truncated_payload(self, dataset):
        data = dumps_fpdns2(dataset)
        with pytest.raises(FormatError, match="truncated"):
            loads_fpdns2(data[:-10])

    def test_checksum_mismatch(self, dataset):
        data = bytearray(dumps_fpdns2(dataset))
        data[-1] ^= 0xFF
        with pytest.raises(FormatError, match="checksum"):
            loads_fpdns2(bytes(data))

    def test_source_named_in_error(self, dataset, tmp_path):
        path = tmp_path / "broken.fpdns2"
        path.write_bytes(dumps_fpdns2(dataset)[:-10])
        with pytest.raises(FormatError, match="broken.fpdns2"):
            load_fpdns2(path)
