"""Tests for passive-DNS serialization."""

import gzip

import pytest

from repro.dns.message import RCode, RRType
from repro.pdns.io import (FormatError, iter_fpdns_entries, load_fpdns,
                           save_fpdns)
from repro.core.records import FpDnsDataset, FpDnsEntry


@pytest.fixture
def dataset():
    ds = FpDnsDataset(day="2011-12-01")
    ds.below = [
        FpDnsEntry(10.5, 3, "www.a.com", RRType.A, RCode.NOERROR, 300,
                   "1.1.1.1"),
        FpDnsEntry(11.0, 4, "nx.b.com", RRType.A, RCode.NXDOMAIN),
        FpDnsEntry(12.0, 5, "h.c.com", RRType.AAAA, RCode.NOERROR, 60,
                   "aa:bb::1"),
    ]
    ds.above = [
        FpDnsEntry(10.5, None, "www.a.com", RRType.A, RCode.NOERROR, 600,
                   "1.1.1.1"),
    ]
    return ds


class TestFpDnsRoundTrip:
    def test_roundtrip(self, dataset, tmp_path):
        path = tmp_path / "day.tsv.gz"
        count = save_fpdns(dataset, path)
        assert count == 4
        loaded = load_fpdns(path)
        assert loaded.day == "2011-12-01"
        assert loaded.below == dataset.below
        assert loaded.above == dataset.above

    def test_streaming_iteration(self, dataset, tmp_path):
        path = tmp_path / "day.tsv.gz"
        save_fpdns(dataset, path)
        sides = [side for side, _ in iter_fpdns_entries(path)]
        assert sides == ["B", "B", "B", "A"]

    def test_simulated_day_roundtrip(self, tiny_day, tmp_path):
        path = tmp_path / "sim.tsv.gz"
        save_fpdns(tiny_day, path)
        loaded = load_fpdns(path)
        assert loaded.below_volume() == tiny_day.below_volume()
        assert loaded.above_volume() == tiny_day.above_volume()
        assert loaded.distinct_rrs() == tiny_day.distinct_rrs()
        assert loaded.nxdomain_volume_below() == \
            tiny_day.nxdomain_volume_below()

    def test_rejects_wrong_header(self, tmp_path):
        path = tmp_path / "bad.gz"
        with gzip.open(path, "wt") as handle:
            handle.write("not-a-header\n")
        with pytest.raises(FormatError):
            load_fpdns(path)

    def test_rejects_malformed_line(self, tmp_path):
        path = tmp_path / "bad.gz"
        with gzip.open(path, "wt") as handle:
            handle.write("#repro-fpdns-v1\tx\n")
            handle.write("B\tonly\tthree\n")
        with pytest.raises(FormatError):
            load_fpdns(path)

    def test_rejects_bad_side(self, tmp_path):
        path = tmp_path / "bad.gz"
        with gzip.open(path, "wt") as handle:
            handle.write("#repro-fpdns-v1\tx\n")
            handle.write("X\t1.0\t1\ta.com\tA\tNOERROR\t60\t1.1.1.1\n")
        with pytest.raises(FormatError):
            load_fpdns(path)


_ENTRY_LINE = "B\t1.0\t1\ta.com\tA\tNOERROR\t60\t1.1.1.1\n"


class TestBlankLines:
    def _write(self, path, *lines):
        with gzip.open(path, "wt") as handle:
            handle.write("#repro-fpdns-v1\tx\n")
            for line in lines:
                handle.write(line)

    def test_blank_line_between_records_is_an_error(self, tmp_path):
        """A blank followed by a record means the file was truncated
        and appended to — silently skipping it would mask that."""
        path = tmp_path / "gap.gz"
        self._write(path, _ENTRY_LINE, "\n", _ENTRY_LINE)
        with pytest.raises(FormatError, match="blank line between records"):
            load_fpdns(path)

    def test_blank_line_error_names_line_number(self, tmp_path):
        path = tmp_path / "gap.gz"
        self._write(path, _ENTRY_LINE, "\n", _ENTRY_LINE)
        with pytest.raises(FormatError, match="line 3"):
            load_fpdns(path)

    def test_trailing_blank_lines_tolerated(self, tmp_path):
        path = tmp_path / "trailing.gz"
        self._write(path, _ENTRY_LINE, "\n", "\n")
        loaded = load_fpdns(path)
        assert len(loaded.below) == 1

    def test_streaming_iteration_also_rejects_gaps(self, tmp_path):
        path = tmp_path / "gap.gz"
        self._write(path, _ENTRY_LINE, "\n", _ENTRY_LINE)
        with pytest.raises(FormatError, match="blank line"):
            list(iter_fpdns_entries(path))


class TestErrorsNameSource:
    """Every FormatError message carries the offending file path."""

    def test_bad_header_names_path(self, tmp_path):
        path = tmp_path / "bad-header.gz"
        with gzip.open(path, "wt") as handle:
            handle.write("not-a-header\n")
        with pytest.raises(FormatError, match="bad-header.gz"):
            load_fpdns(path)

    def test_malformed_line_names_path(self, tmp_path):
        path = tmp_path / "bad-line.gz"
        with gzip.open(path, "wt") as handle:
            handle.write("#repro-fpdns-v1\tx\n")
            handle.write("B\tonly\tthree\n")
        with pytest.raises(FormatError, match="bad-line.gz"):
            load_fpdns(path)

    def test_blank_line_names_path(self, tmp_path):
        path = tmp_path / "gap.gz"
        with gzip.open(path, "wt") as handle:
            handle.write("#repro-fpdns-v1\tx\n")
            handle.write(_ENTRY_LINE + "\n" + _ENTRY_LINE)
        with pytest.raises(FormatError, match="gap.gz"):
            load_fpdns(path)
