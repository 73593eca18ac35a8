"""Tests for the text-report helpers."""

from repro.textutil import (format_kv, format_percent, format_series,
                            format_table)


class TestFormatPercent:
    def test_basic(self):
        assert format_percent(0.276) == "27.6%"

    def test_digits(self):
        assert format_percent(0.0061, digits=2) == "0.61%"

    def test_zero(self):
        assert format_percent(0.0) == "0.0%"


class TestFormatTable:
    def test_alignment(self):
        table = format_table(["name", "n"], [("a", 1), ("longer", 22)])
        lines = table.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("name")
        # Separator row matches column widths.
        assert set(lines[1]) <= {"-", " "}
        assert "longer" in lines[3]

    def test_wide_cell_extends_column(self):
        table = format_table(["x"], [("wiiiiiiide",)])
        assert "wiiiiiiide" in table

    def test_empty_rows(self):
        table = format_table(["a", "b"], [])
        assert len(table.splitlines()) == 2

    def test_non_string_cells(self):
        table = format_table(["a"], [(3.14,), (None,)])
        assert "3.14" in table and "None" in table


class TestFormatKv:
    def test_alignment(self):
        block = format_kv([("k", "v"), ("longer-key", 2)])
        lines = block.splitlines()
        assert lines[0].index(":") == lines[1].index(":")

    def test_title(self):
        block = format_kv([("k", "v")], title="Header")
        lines = block.splitlines()
        assert lines[0] == "Header"
        assert lines[1] == "======"

    def test_empty(self):
        assert format_kv([]) == ""


class TestFormatSeries:
    def test_basic(self):
        out = format_series("s", [0.1, 0.25], digits=2)
        assert out == "s: [0.10, 0.25]"
