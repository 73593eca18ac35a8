"""Tests for the calibration validator."""

import pytest

from repro.core.interning import build_day_digest
from repro.experiments.validation import validate_calibration


class TestCalibrationScorecard:
    @pytest.fixture(scope="class")
    def scorecard(self, tiny_simulator, tiny_day):
        return validate_calibration(tiny_simulator,
                                    build_day_digest(tiny_day))

    def test_default_workload_passes_all_invariants(self, scorecard):
        assert scorecard.all_passed, scorecard.render()

    def test_ten_invariants_checked(self, scorecard):
        assert len(scorecard.checks) == 10

    def test_failures_empty_when_passing(self, scorecard):
        assert scorecard.failures() == []

    def test_render(self, scorecard):
        text = scorecard.render()
        assert "Calibration scorecard" in text
        assert "PASS" in text
        assert "FAIL" not in text

    def test_measured_values_finite(self, scorecard):
        for check in scorecard.checks:
            assert check.measured == check.measured  # not NaN


class TestMiscalibrationDetected:
    def test_disposable_flood_fails_share_band(self):
        """A workload with disposable traffic cranked far beyond the
        paper's regime must fail the share-band invariant — the
        scorecard is a real net, not a rubber stamp."""
        from repro.traffic.simulate import (MeasurementDate,
                                            PopulationConfig,
                                            SimulatorConfig,
                                            TraceSimulator, WorkloadConfig)

        config = SimulatorConfig(
            cache_capacity=3_000,
            population=PopulationConfig(n_popular_sites=20,
                                        n_longtail_sites=50,
                                        n_extra_disposable=10,
                                        cdn_objects=500),
            workload=WorkloadConfig(events_per_day=6_000, n_clients=60,
                                    popular_share=0.18,
                                    longtail_share=0.02,
                                    typo_share=0.02,
                                    cdn_share=0.02,
                                    google_share=0.02,
                                    disposable_share_start=0.60,
                                    disposable_share_end=0.70))
        simulator = TraceSimulator(config)
        day = simulator.run_day(MeasurementDate("flood", 100, 1.0))
        scorecard = validate_calibration(simulator, build_day_digest(day))
        failed = {check.name for check in scorecard.failures()}
        assert "disposable share of resolved names" in failed
