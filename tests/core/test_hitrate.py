"""Tests for repro.core.hitrate — DHR/CHR computation (Eq. 1-2)."""

import numpy as np
import pytest

from repro.core.hitrate import HitRateTable, RRHitRate, hit_rates_from_digest
from repro.core.interning import build_day_digest
from repro.dns.message import RCode, RRType
from repro.core.records import FpDnsDataset, FpDnsEntry


def _entry(ts, name, rdata, client=1, side_ttl=300):
    return FpDnsEntry(timestamp=ts, client_id=client, qname=name,
                      qtype=RRType.A, rcode=RCode.NOERROR, ttl=side_ttl,
                      rdata=rdata)


def make_dataset(below_counts, above_counts):
    """Build a dataset with given per-name (below, above) answer counts."""
    ds = FpDnsDataset(day="test")
    for name, count in below_counts.items():
        for i in range(count):
            ds.below.append(_entry(float(i), name, "1.2.3.4"))
    for name, count in above_counts.items():
        for i in range(count):
            ds.above.append(_entry(float(i), name, "1.2.3.4", client=None))
    return ds


class TestRRHitRate:
    def test_paper_example(self):
        # Section III-C2: 5 total queries, 2 misses -> DHR 0.6, and the
        # CHR samples are [0.6, 0.6].
        rate = RRHitRate(key=("a.com", RRType.A, "1.1.1.1"),
                         queries_below=5, misses_above=2)
        assert rate.domain_hit_rate == pytest.approx(0.6)
        assert rate.chr_samples() == pytest.approx([0.6, 0.6])

    def test_all_hits(self):
        rate = RRHitRate(("a.com", RRType.A, "x"), 10, 0)
        assert rate.domain_hit_rate == 1.0
        assert rate.chr_samples() == []

    def test_all_misses(self):
        rate = RRHitRate(("a.com", RRType.A, "x"), 3, 3)
        assert rate.domain_hit_rate == 0.0
        assert rate.chr_samples() == [0.0, 0.0, 0.0]

    def test_zero_queries(self):
        rate = RRHitRate(("a.com", RRType.A, "x"), 0, 1)
        assert rate.domain_hit_rate == 0.0
        assert rate.hits == 0

    def test_hits_never_negative(self):
        rate = RRHitRate(("a.com", RRType.A, "x"), 2, 5)
        assert rate.hits == 0


class TestComputeHitRates:
    def test_counts(self):
        ds = make_dataset({"a.com": 5}, {"a.com": 2})
        table = hit_rates_from_digest(build_day_digest(ds))
        rate = table.get(("a.com", RRType.A, "1.2.3.4"))
        assert rate.queries_below == 5
        assert rate.misses_above == 2
        assert rate.domain_hit_rate == pytest.approx(0.6)

    def test_above_only_record_included(self):
        ds = make_dataset({}, {"pre.com": 1})
        table = hit_rates_from_digest(build_day_digest(ds))
        rate = table.get(("pre.com", RRType.A, "1.2.3.4"))
        assert rate is not None
        assert rate.domain_hit_rate == 0.0

    def test_nxdomain_entries_excluded(self):
        ds = make_dataset({"a.com": 2}, {"a.com": 1})
        ds.below.append(FpDnsEntry(0.0, 1, "missing.com", RRType.A,
                                   RCode.NXDOMAIN))
        table = hit_rates_from_digest(build_day_digest(ds))
        assert len(table) == 1

    def test_distinct_rdata_distinct_records(self):
        ds = FpDnsDataset(day="t")
        ds.below.append(_entry(0, "a.com", "1.1.1.1"))
        ds.below.append(_entry(1, "a.com", "2.2.2.2"))
        table = hit_rates_from_digest(build_day_digest(ds))
        assert len(table) == 2


class TestHitRateTable:
    @pytest.fixture
    def table(self):
        ds = make_dataset({"hot.com": 10, "cold.com": 1, "warm.com": 4},
                          {"hot.com": 1, "cold.com": 1, "warm.com": 2})
        return hit_rates_from_digest(build_day_digest(ds))

    def test_len_and_contains(self, table):
        assert len(table) == 3
        assert ("hot.com", RRType.A, "1.2.3.4") in table

    def test_dhr_values(self, table):
        values = sorted(table.dhr_values().tolist())
        assert values == pytest.approx([0.0, 0.5, 0.9])

    def test_chr_values_weighted_by_misses(self, table):
        values = sorted(table.chr_values().tolist())
        # hot: 1 miss at 0.9; cold: 1 miss at 0.0; warm: 2 misses at 0.5
        assert values == pytest.approx([0.0, 0.5, 0.5, 0.9])

    def test_zero_dhr_fraction(self, table):
        assert table.zero_dhr_fraction() == pytest.approx(1 / 3)

    def test_chr_median(self, table):
        assert table.chr_median() == pytest.approx(0.5)

    def test_chr_zero_fraction(self, table):
        assert table.chr_zero_fraction() == pytest.approx(0.25)

    def test_for_names(self, table):
        subset = table.for_names(["hot.com"])
        assert len(subset) == 1
        assert subset[0].queries_below == 10

    def test_filter(self, table):
        subset = table.filter(lambda key: key[0].startswith("w"))
        assert len(subset) == 1

    def test_lookup_counts(self, table):
        assert sorted(table.lookup_counts().tolist()) == [1, 4, 10]

    def test_empty_selections(self, table):
        assert table.chr_median([]) == 0.0
        assert table.chr_zero_fraction([]) == 1.0
        assert table.zero_dhr_fraction([]) == 0.0


class TestSimulatedDayConsistency:
    def test_above_never_exceeds_below_plus_prefetch(self, tiny_day):
        """In a live simulated day, per-RR misses should not exceed
        queries except for boundary effects (entries cached late in the
        previous day)."""
        table = hit_rates_from_digest(build_day_digest(tiny_day))
        records = table.records()
        assert records
        bad = [r for r in records if r.misses_above > r.queries_below]
        # Boundary artifacts must stay rare.
        assert len(bad) <= max(2, int(0.01 * len(records)))

    def test_mostly_low_hit_rates(self, tiny_day):
        """The long-tail phenomenon: most RRs have zero DHR."""
        table = hit_rates_from_digest(build_day_digest(tiny_day))
        assert table.zero_dhr_fraction() > 0.5
