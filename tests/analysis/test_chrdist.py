"""Tests for the CHR distribution analyses (Figures 4 and 7)."""

import pytest

from repro.analysis.chrdist import (chr_cdf, chr_cdf_for_zones,
                                    chr_split_from_digest)
from repro.core.hitrate import hit_rates_from_digest
from repro.core.interning import build_day_digest
from repro.core.records import FpDnsDataset, FpDnsEntry
from repro.dns.message import RCode, RRType


def make_day(spec):
    """A day whose per-RR (below, above) answer counts follow ``spec``."""
    dataset = FpDnsDataset(day="t")
    for name, counts in spec.items():
        for stream, count in zip((dataset.below, dataset.above), counts):
            stream.extend(FpDnsEntry(float(i), 1, name, RRType.A,
                                     RCode.NOERROR, 300, "1.1.1.1")
                          for i in range(count))
    return dataset


@pytest.fixture
def digest():
    spec = {"www.bank.com": (100, 2), "mail.bank.com": (50, 2)}
    spec.update({f"h{i}.avqs.mcafee.com": (1, 1) for i in range(6)})
    return build_day_digest(make_day(spec))


@pytest.fixture
def table(digest):
    return hit_rates_from_digest(digest)


class TestChrCdf:
    def test_all_samples(self, table):
        cdf = chr_cdf(table)
        # 2+2 popular misses + 6 disposable misses = 10 samples.
        assert len(cdf) == 10
        assert cdf.at(0.0) == pytest.approx(0.6)

    def test_zone_restriction(self, table):
        cdf = chr_cdf_for_zones(table, ["avqs.mcafee.com"])
        assert len(cdf) == 6
        assert cdf.at(0.0) == 1.0

    def test_zone_restriction_popular(self, table):
        cdf = chr_cdf_for_zones(table, ["bank.com"])
        assert len(cdf) == 4
        assert cdf.at(0.0) == 0.0


class TestChrSplit:
    def test_split(self, digest):
        # Names h{i}.avqs.mcafee.com sit at depth 4 under the zone.
        split = chr_split_from_digest(digest, {("avqs.mcafee.com", 4)})
        assert split.disposable_zero_fraction == 1.0
        assert split.non_disposable_median > 0.9
        assert split.non_disposable_fraction_above(0.58) == 1.0

    def test_split_no_groups(self, digest):
        split = chr_split_from_digest(digest, set())
        assert len(split.disposable) == 0
        assert len(split.non_disposable) == 10

    def test_day_carried(self, digest):
        split = chr_split_from_digest(digest, set())
        assert split.day == "t"
