"""Digest-based analysis functions against their per-entry oracles.

Every ``*_from_digest`` function in ``repro.analysis`` must reproduce
the per-entry scan in :mod:`tests.oracles` bit for bit on the same day
— including order-sensitive details such as the top-zone tie-break and
the volume bin edges.
"""

import numpy as np
import pytest

from repro.analysis.chrdist import chr_split_from_digest
from repro.analysis.clients import clients_per_name_from_digest
from repro.analysis.summary import build_daily_report_from_digest
from repro.analysis.volume import (day_summary_from_digest,
                                   hourly_volumes_from_digest)
from repro.core.hitrate import hit_rates_from_digest
from repro.core.interning import build_day_digest

from tests.oracles import (build_daily_report, chr_split, clients_per_name,
                           compute_hit_rates, day_summary, hourly_volumes)


@pytest.fixture(scope="module")
def day_and_digest(tiny_day):
    return tiny_day, build_day_digest(tiny_day)


@pytest.fixture(scope="module")
def disposable_groups(tiny_day):
    """A plausible mined-group set over the day's own zones: the two
    busiest effective 2LDs at one depth below the zone apex."""
    from repro.core.suffix import default_suffix_list
    suffixes = default_suffix_list()
    zones = {}
    for name in tiny_day.resolved_domains():
        zone = suffixes.effective_2ld(name)
        if zone is not None:
            zones[zone] = zones.get(zone, 0) + 1
    busiest = sorted(zones, key=lambda z: (-zones[z], z))[:2]
    return {(zone, zone.count(".") + 2) for zone in busiest}


class TestVolumes:
    @pytest.mark.parametrize("side", ["below", "above"])
    def test_hourly_volumes_equal(self, day_and_digest, side):
        day, digest = day_and_digest
        legacy = hourly_volumes(day, side)
        columnar = hourly_volumes_from_digest(digest, side)
        assert columnar.day == legacy.day
        assert columnar.side == legacy.side
        assert columnar.bin_seconds == legacy.bin_seconds
        for column in ("total", "nxdomain", "google", "akamai"):
            assert np.array_equal(getattr(columnar, column),
                                  getattr(legacy, column)), column

    def test_hourly_volumes_custom_bins(self, day_and_digest):
        day, digest = day_and_digest
        legacy = hourly_volumes(day, "below", n_bins=7, day_seconds=3_600.0)
        columnar = hourly_volumes_from_digest(digest, "below", n_bins=7,
                                              day_seconds=3_600.0)
        assert np.array_equal(columnar.total, legacy.total)
        assert np.array_equal(columnar.google, legacy.google)

    def test_rejects_unknown_side(self, day_and_digest):
        _, digest = day_and_digest
        with pytest.raises(ValueError):
            hourly_volumes_from_digest(digest, "sideways")

    def test_day_summary_equal(self, day_and_digest):
        day, digest = day_and_digest
        assert day_summary_from_digest(digest) == day_summary(day)


class TestDailyReport:
    def test_report_equal_without_groups(self, day_and_digest):
        day, digest = day_and_digest
        hit_rates = compute_hit_rates(day)
        legacy = build_daily_report(day, hit_rates=hit_rates)
        columnar = build_daily_report_from_digest(
            digest, hit_rates=hit_rates_from_digest(digest))
        # Dataclass equality covers every field, including the
        # insertion-order-sensitive top_zones ranking.
        assert columnar == legacy

    def test_report_equal_with_groups(self, day_and_digest,
                                      disposable_groups):
        day, digest = day_and_digest
        legacy = build_daily_report(day, disposable_groups=disposable_groups)
        columnar = build_daily_report_from_digest(
            digest, disposable_groups=disposable_groups)
        assert columnar == legacy


class TestClients:
    def test_client_spread_equal(self, day_and_digest, disposable_groups):
        day, digest = day_and_digest
        legacy = clients_per_name(day, disposable_groups)
        columnar = clients_per_name_from_digest(digest, disposable_groups)
        assert columnar.day == legacy.day
        assert np.array_equal(columnar.disposable_counts,
                              legacy.disposable_counts)
        assert np.array_equal(columnar.other_counts, legacy.other_counts)
        assert columnar.disposable_counts.size > 0  # non-vacuous split


class TestChrSplit:
    def test_split_equal(self, day_and_digest, disposable_groups):
        day, digest = day_and_digest
        hit_rates = compute_hit_rates(day)
        legacy = chr_split(hit_rates, disposable_groups)
        columnar = chr_split_from_digest(digest, disposable_groups,
                                         hit_rates_from_digest(digest))
        assert columnar.day == legacy.day
        assert columnar.disposable_zero_fraction == \
            legacy.disposable_zero_fraction
        assert columnar.non_disposable_median == legacy.non_disposable_median
        assert np.array_equal(columnar.disposable.values,
                              legacy.disposable.values)
        assert np.array_equal(columnar.non_disposable.values,
                              legacy.non_disposable.values)

    def test_split_builds_table_when_omitted(self, day_and_digest,
                                             disposable_groups):
        day, digest = day_and_digest
        legacy = chr_split(compute_hit_rates(day), disposable_groups)
        columnar = chr_split_from_digest(digest, disposable_groups)
        assert columnar.disposable_zero_fraction == \
            legacy.disposable_zero_fraction
        assert columnar.non_disposable_median == legacy.non_disposable_median
