"""Tests for the end-to-end trace simulator."""

import pytest

from repro.traffic.simulate import (PAPER_DATES, RPDNS_WINDOW_DATES,
                                    MeasurementDate)


class TestCalendar:
    def test_paper_dates(self):
        labels = [d.label for d in PAPER_DATES]
        assert labels == ["2011-02-01", "2011-09-02", "2011-09-13",
                          "2011-11-14", "2011-11-29", "2011-12-30"]
        fractions = [d.year_fraction for d in PAPER_DATES]
        assert fractions == sorted(fractions)

    def test_rpdns_window_is_13_consecutive_days(self):
        assert len(RPDNS_WINDOW_DATES) == 13
        indices = [d.day_index for d in RPDNS_WINDOW_DATES]
        assert indices == list(range(indices[0], indices[0] + 13))
        assert RPDNS_WINDOW_DATES[0].label == "2011-11-28"
        assert RPDNS_WINDOW_DATES[-1].label == "2011-12-10"


class TestSimulatedDay:
    def test_dataset_shape(self, tiny_day):
        assert tiny_day.day == "2011-11-10"
        assert tiny_day.below_volume() > 0
        assert tiny_day.above_volume() > 0
        # Caching: strictly less traffic above than below.
        assert tiny_day.above_volume() < tiny_day.below_volume()

    def test_nxdomain_present_on_both_sides(self, tiny_day):
        assert tiny_day.nxdomain_volume_below() > 0
        # Without negative caching every NXDOMAIN goes upstream.
        assert tiny_day.nxdomain_volume_above() == \
            tiny_day.nxdomain_volume_below()

    def test_populations_nested(self, tiny_day):
        resolved = tiny_day.resolved_domains()
        queried = tiny_day.queried_domains()
        assert resolved <= queried
        assert len(tiny_day.distinct_rrs()) >= len(resolved)

    def test_ground_truth_zones_queried(self, tiny_simulator, tiny_day):
        """The simulated day must contain names under the ground-truth
        disposable zones."""
        resolved = tiny_day.resolved_domains()
        hit_zones = 0
        for zone, _depth in tiny_simulator.disposable_truth():
            if any(name.endswith("." + zone) for name in resolved):
                hit_zones += 1
        assert hit_zones >= len(tiny_simulator.disposable_truth()) * 0.5

    def test_later_day_has_more_disposable(self, tiny_simulator):
        """Growth mechanism: the December day carries a larger share of
        ground-truth disposable names than the February day."""
        from repro.core.groups import name_matches_groups
        truth = tiny_simulator.disposable_truth()
        early = tiny_simulator.run_day(MeasurementDate("feb", 31, 0.0))
        late = tiny_simulator.run_day(MeasurementDate("dec", 363, 1.0))

        def share(ds):
            resolved = ds.resolved_domains()
            flagged = sum(1 for n in resolved
                          if name_matches_groups(n, truth))
            return flagged / len(resolved)

        assert share(late) > share(early)

    def test_run_days_returns_one_dataset_per_date(self, tiny_simulator):
        dates = [MeasurementDate("d1", 500, 0.5),
                 MeasurementDate("d2", 501, 0.5)]
        datasets = tiny_simulator.run_days(dates, n_events=500)
        assert [d.day for d in datasets] == ["d1", "d2"]
        assert all(d.below_volume() > 0 for d in datasets)
