"""Segment format tests: round-trip, determinism, corruption matrix."""

import hashlib
import json

import pytest

from repro.core.records import rr_sort_key
from repro.dns.message import RRType
from repro.pdns.io import FormatError
from repro.pdns.segments import (SEGMENT_MAGIC, build_segment_bytes,
                                 hash64, hash_rr_key, open_segment)


def sample_rows():
    return {
        ("a1.cdn.example.com", RRType.A, "10.0.0.1"): "2011-02-22",
        ("a1.cdn.example.com", RRType.AAAA, "::1"): "2011-02-23",
        ("b.other.net", RRType.CNAME, "c.other.net"): "2011-02-22",
        ("c.other.net", RRType.A, "10.0.0.2"): "2011-02-24",
    }


def rewrite_header(data, header_json):
    """``data`` with its header line replaced by ``header_json``, a
    function of the parsed header returning the new JSON value."""
    header_end = data.index(b"\n", len(SEGMENT_MAGIC))
    header = json.loads(data[len(SEGMENT_MAGIC):header_end])
    line = json.dumps(header_json(header), sort_keys=True,
                      separators=(",", ":")).encode()
    return SEGMENT_MAGIC + line + data[header_end:]


def write_segment(tmp_path, rows=None, days=None, name="seg.pdnsseg"):
    data = build_segment_bytes(rows if rows is not None else sample_rows(),
                               days=days)
    path = tmp_path / name
    path.write_bytes(data)
    return path, data


class TestRoundTrip:
    def test_rows_and_days_round_trip(self, tmp_path):
        path, _ = write_segment(
            tmp_path, days=["2011-02-22", "2011-02-23", "2011-02-24",
                            "2011-02-25"])
        segment = open_segment(str(path))
        assert dict(segment.rr_items()) == sample_rows()
        assert segment.meta.days[-1] == "2011-02-25"
        assert segment.new_counts_by_day() == {
            "2011-02-22": 2, "2011-02-23": 1, "2011-02-24": 1,
            "2011-02-25": 0}

    def test_rows_in_canonical_order(self, tmp_path):
        path, _ = write_segment(tmp_path)
        segment = open_segment(str(path))
        keys = [key for key, _ in segment.rr_items()]
        assert keys == sorted(keys, key=rr_sort_key)

    def test_point_queries(self, tmp_path):
        path, _ = write_segment(tmp_path)
        segment = open_segment(str(path))
        owned = segment.entries_for_name("a1.cdn.example.com")
        assert {entry.qtype for entry in owned} == {RRType.A, RRType.AAAA}
        carrying = segment.entries_for_rdata("10.0.0.2")
        assert [entry.qname for entry in carrying] == ["c.other.net"]
        assert segment.first_seen_of(
            ("b.other.net", RRType.CNAME, "c.other.net")) == "2011-02-22"
        assert segment.first_seen_of(
            ("b.other.net", RRType.A, "c.other.net")) is None

    def test_zone_queries(self, tmp_path):
        path, _ = write_segment(tmp_path)
        segment = open_segment(str(path))
        assert segment.names_under_zone("example.com") == \
            ["a1.cdn.example.com"]
        assert sorted(segment.names_under_zone("net")) == \
            ["b.other.net", "c.other.net"]
        assert segment.names_under_zone("other.org") == []

    def test_empty_segment(self, tmp_path):
        path, _ = write_segment(tmp_path, rows={}, days=["2011-03-01"])
        segment = open_segment(str(path))
        assert segment.meta.n_rows == 0
        assert segment.new_counts_by_day() == {"2011-03-01": 0}
        assert list(segment.rr_items()) == []

    def test_release_then_requery(self, tmp_path):
        path, _ = write_segment(tmp_path)
        segment = open_segment(str(path))
        assert segment.entries_for_name("c.other.net")
        assert segment.resident
        segment.release()
        assert not segment.resident
        assert segment.entries_for_name("c.other.net")


class TestDeterminism:
    def test_byte_identical_at_any_input_order(self):
        rows = sample_rows()
        reversed_rows = dict(reversed(list(rows.items())))
        assert build_segment_bytes(rows) == \
            build_segment_bytes(reversed_rows)

    def test_day_list_order_does_not_matter(self):
        rows = sample_rows()
        days = ["2011-02-22", "2011-02-23", "2011-02-24"]
        assert build_segment_bytes(rows, days=days) == \
            build_segment_bytes(rows, days=list(reversed(days)))

    def test_layout_is_pinned(self):
        """Existing stores must keep opening: the bytes of a known
        segment are fixed across commits."""
        rows = {
            ("a.example.com", RRType.A, "192.0.2.1"): "2011-02-01",
            ("x.b.example.com", RRType.AAAA, "2001:db8::1"): "2011-02-02",
            ("a.example.com", RRType.CNAME, "b.example.com"): "2011-02-01",
        }
        data = build_segment_bytes(
            rows, days=["2011-02-01", "2011-02-02", "2011-02-03"])
        assert len(data) == 1890
        assert hashlib.sha256(data).hexdigest() == (
            "e9d268650ee17befdeb2a183fe96c9553550f4780a4c1a6cc6cf1d640ad8a1d9")

    def test_row_day_outside_day_list_rejected(self):
        with pytest.raises(ValueError, match="2011-02-24"):
            build_segment_bytes(sample_rows(), days=["2011-02-22",
                                                     "2011-02-23"])


class TestPrefilters:
    def test_membership(self, tmp_path):
        path, _ = write_segment(tmp_path)
        segment = open_segment(str(path))
        assert segment.may_contain_name_hash(hash64("b.other.net"))
        assert not segment.may_contain_name_hash(hash64("nope.invalid"))
        assert segment.may_contain_rdata_hash(hash64("10.0.0.1"))
        assert not segment.may_contain_rdata_hash(hash64("10.9.9.9"))
        assert segment.may_contain_zone_hash(hash64("cdn.example.com"))
        assert segment.may_contain_zone_hash(hash64("com"))
        assert not segment.may_contain_zone_hash(hash64("org"))
        assert segment.may_contain_rr_hash(hash_rr_key(
            ("c.other.net", RRType.A, "10.0.0.2")))
        assert not segment.may_contain_rr_hash(hash_rr_key(
            ("c.other.net", RRType.A, "10.0.0.3")))

    def test_prefilter_checks_need_no_payload(self, tmp_path):
        path, _ = write_segment(tmp_path)
        segment = open_segment(str(path))
        segment.may_contain_name_hash(hash64("b.other.net"))
        assert not segment.resident

    def test_zone_ancestors(self, tmp_path):
        """The zone filter holds every proper ancestor of every name,
        lowercased, and never a name itself or a TLD-only name."""
        rows = {("a.B.c.com", RRType.A, "10.0.0.1"): "2011-02-22",
                ("x.c.com", RRType.A, "10.0.0.2"): "2011-02-22",
                ("org", RRType.A, "10.0.0.3"): "2011-02-22"}
        path, _ = write_segment(tmp_path, rows=rows)
        segment = open_segment(str(path))
        for zone in ("b.c.com", "c.com", "com"):
            assert segment.may_contain_zone_hash(hash64(zone))
        for absent in ("a.b.c.com", "a.B.c.com", "B.c.com", "x.c.com",
                       "org"):
            assert not segment.may_contain_zone_hash(hash64(absent))


class TestCorruptionMatrix:
    def test_bad_magic(self, tmp_path):
        path, data = write_segment(tmp_path)
        path.write_bytes(b"#not-a-segment1\n" + data[len(SEGMENT_MAGIC):])
        with pytest.raises(FormatError, match="bad magic"):
            open_segment(str(path))
        with pytest.raises(FormatError, match=str(path)):
            open_segment(str(path))

    def test_truncated_header(self, tmp_path):
        path, data = write_segment(tmp_path)
        path.write_bytes(data[:len(SEGMENT_MAGIC) + 5])
        with pytest.raises(FormatError, match="header"):
            open_segment(str(path))

    def test_unsupported_version(self, tmp_path):
        path, data = write_segment(tmp_path)
        path.write_bytes(rewrite_header(
            data, lambda header: dict(header, version=99)))
        with pytest.raises(FormatError, match="version"):
            open_segment(str(path))

    @pytest.mark.parametrize("header_json", [
        lambda header: [1],
        lambda header: dict(header, filters_bytes=-1),
        lambda header: dict(header, filters_bytes=10 ** 30),
        lambda header: dict(header, payload_bytes="12"),
        lambda header: dict(header, days="2011-02-22"),
        lambda header: dict(header, days=[]),
        lambda header: dict(header, days=[20110222]),
    ], ids=["not-an-object", "negative-length", "huge-length",
            "string-length", "string-days", "no-days", "int-days"])
    def test_wrongly_shaped_header(self, tmp_path, header_json):
        path, data = write_segment(tmp_path)
        path.write_bytes(rewrite_header(data, header_json))
        with pytest.raises(FormatError, match=str(path)):
            open_segment(str(path))

    def test_truncated_payload(self, tmp_path):
        path, data = write_segment(tmp_path)
        path.write_bytes(data[:-20])
        with pytest.raises(FormatError, match="truncated"):
            open_segment(str(path))

    def test_filter_checksum_mismatch_fails_at_open(self, tmp_path):
        path, data = write_segment(tmp_path)
        header_end = data.index(b"\n", len(SEGMENT_MAGIC))
        corrupted = bytearray(data)
        corrupted[header_end + 10] ^= 0xFF
        path.write_bytes(bytes(corrupted))
        with pytest.raises(FormatError, match="filter"):
            open_segment(str(path))

    def test_payload_checksum_mismatch_fails_lazily(self, tmp_path):
        path, data = write_segment(tmp_path)
        corrupted = bytearray(data)
        corrupted[-4] ^= 0xFF
        path.write_bytes(bytes(corrupted))
        segment = open_segment(str(path))  # filters fine; opens OK
        with pytest.raises(FormatError, match="checksum"):
            segment.entries_for_name("a1.cdn.example.com")
        with pytest.raises(FormatError, match=str(path)):
            list(segment.rr_items())

    def test_error_names_the_offending_file(self, tmp_path):
        path, data = write_segment(tmp_path, name="weird-name.pdnsseg")
        path.write_bytes(data[:8])
        with pytest.raises(FormatError, match="weird-name.pdnsseg"):
            open_segment(str(path))

    def test_header_checksums_match_blocks(self, tmp_path):
        path, data = write_segment(tmp_path)
        header_end = data.index(b"\n", len(SEGMENT_MAGIC))
        header = json.loads(data[len(SEGMENT_MAGIC):header_end])
        blocks = data[header_end + 1:]
        filters = blocks[:header["filters_bytes"]]
        payload = blocks[header["filters_bytes"]:]
        assert hashlib.sha256(filters).hexdigest() == \
            header["filters_sha256"]
        assert hashlib.sha256(payload).hexdigest() == \
            header["payload_sha256"]
        assert len(payload) == header["payload_bytes"]
