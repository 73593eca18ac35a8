"""Tests for the experiment context."""

import pytest

from repro.experiments.context import (MEDIUM, SMALL, ExperimentContext,
                                       ScaleProfile)
from repro.experiments.figures import run_fig02_traffic_volume
from repro.experiments.validation import validate_calibration
from repro.traffic.artifacts import FpDnsArtifactCache
from repro.traffic.simulate import PAPER_DATES, MeasurementDate

# Seconds-scale profile for the acceleration-path tests below: they
# each run the full standard calendar, so the per-day cost must be tiny.
TINY = ScaleProfile(name="tiny-accel", events_per_day=800,
                    n_popular_sites=30, n_longtail_sites=200,
                    n_extra_disposable=8, n_clients=40,
                    cache_capacity=2_000, cdn_objects=800)


class TestProfiles:
    def test_profiles_distinct(self):
        assert SMALL.events_per_day < MEDIUM.events_per_day
        assert SMALL.name != MEDIUM.name

    def test_simulator_config_wired(self):
        config = SMALL.simulator_config()
        assert config.workload.events_per_day == SMALL.events_per_day
        assert config.population.n_popular_sites == SMALL.n_popular_sites
        assert config.cache_capacity == SMALL.cache_capacity


class TestContext:
    def test_dataset_cached(self, small_context):
        a = small_context.dataset(PAPER_DATES[0])
        b = small_context.dataset(PAPER_DATES[0])
        assert a is b

    def test_calendar_simulated_in_order(self, small_context):
        """Requesting a late date then an early one must not corrupt
        cache timelines — both come from one chronological pass."""
        late = small_context.dataset(PAPER_DATES[-1])
        early = small_context.dataset(PAPER_DATES[0])
        assert late.day == "2011-12-30"
        assert early.day == "2011-02-01"

    def test_adhoc_past_date_rejected(self, small_context):
        small_context.dataset(PAPER_DATES[0])  # ensures calendar ran
        with pytest.raises(ValueError):
            small_context.dataset(MeasurementDate("ad-hoc-past", 1, 0.0))

    def test_adhoc_future_date_allowed(self, small_context):
        ds = small_context.dataset(MeasurementDate("ad-hoc-future", 999,
                                                   1.0))
        assert ds.below_volume() > 0

    def test_training_set_and_classifier_cached(self, small_context):
        assert small_context.training_set() is small_context.training_set()
        assert small_context.classifier() is small_context.classifier()

    def test_mining_result_cached_per_threshold(self, small_context):
        a = small_context.mining_result(PAPER_DATES[0])
        b = small_context.mining_result(PAPER_DATES[0])
        c = small_context.mining_result(PAPER_DATES[0], threshold=0.5)
        assert a is b
        assert c is not a

    def test_truth_groups_nonempty(self, small_context):
        assert len(small_context.truth_groups()) > 10


class TestAcceleratedContext:
    """The artifact-cached paths must change nothing but wall-clock
    time."""

    def test_warm_session_skips_simulation(self, tmp_path):
        cold_cache = FpDnsArtifactCache(tmp_path)
        cold = ExperimentContext(TINY, artifact_cache=cold_cache)
        cold_day = cold.dataset(PAPER_DATES[0])
        assert cold_cache.hits == 0
        stored = len(cold_cache)
        assert stored > 0

        warm_cache = FpDnsArtifactCache(tmp_path)
        warm = ExperimentContext(TINY, artifact_cache=warm_cache)
        warm_day = warm.dataset(PAPER_DATES[0])
        # Every calendar day came from disk: no misses, no simulation.
        assert warm_cache.misses == 0
        assert warm_cache.hits == stored
        assert warm._replayed == 0
        assert warm_day.below == cold_day.below
        assert warm_day.above == cold_day.above

    def test_warm_session_is_digest_native(self, tmp_path):
        """A cache-warm columnar session feeds deserialised digests
        straight into mining: no entry lists are ever materialised."""
        from repro.pdns.columnar import ColumnarFpDnsDataset

        cache = FpDnsArtifactCache(tmp_path, artifact_format="columnar")
        ExperimentContext(TINY, artifact_cache=cache).dataset(PAPER_DATES[0])

        warm = ExperimentContext(
            TINY, artifact_cache=FpDnsArtifactCache(
                tmp_path, artifact_format="columnar"))
        day = warm.dataset(PAPER_DATES[0])
        assert isinstance(day, ColumnarFpDnsDataset)
        digest = warm.digest(PAPER_DATES[0])
        assert digest is day.day_digest()       # no rebuild
        assert day._below_entries is None       # no materialisation
        assert day._above_entries is None

        # Figure 2 and the calibration scorecard read digests too.
        run_fig02_traffic_volume(warm)
        validate_calibration(warm.simulator, warm.digest(PAPER_DATES[-1]),
                             warm.hit_rates(PAPER_DATES[-1]))
        loaded = list(warm._datasets.values())
        assert len(loaded) > 1
        for loaded_day in loaded:
            assert isinstance(loaded_day, ColumnarFpDnsDataset)
            assert loaded_day._below_entries is None
            assert loaded_day._above_entries is None

    def test_mining_identical_across_formats_and_workers(self, tmp_path):
        """The paper's outputs are invariant under the artifact cache,
        a wall-clock knob only."""
        baseline = ExperimentContext(TINY)
        expected = baseline.mining_result(PAPER_DATES[0])

        cache = FpDnsArtifactCache(tmp_path)
        ExperimentContext(TINY, artifact_cache=cache).dataset(PAPER_DATES[0])
        warm = ExperimentContext(
            TINY, artifact_cache=FpDnsArtifactCache(tmp_path))
        assert warm.mining_result(PAPER_DATES[0]) == expected

    def test_stale_version_blob_is_resimulated_and_overwritten(
            self, tmp_path):
        """A blob of an older fpDNS-v2 version is a miss: the day is
        simulated again and its blob rewritten under the same key."""
        from repro.pdns.columnar import FPDNS2_VERSION

        cold = ExperimentContext(TINY, artifact_cache=FpDnsArtifactCache(
            tmp_path))
        expected = cold.dataset(PAPER_DATES[0])
        paths = sorted(tmp_path.glob("*.fpdns2"))
        current = f'"version":{FPDNS2_VERSION}'.encode()
        for path in paths:
            path.write_bytes(path.read_bytes().replace(current,
                                                       b'"version":1'))

        stale = FpDnsArtifactCache(tmp_path)
        assert ExperimentContext(
            TINY, artifact_cache=stale).dataset(PAPER_DATES[0]) == expected
        # The first miss sends the session to the simulator, which
        # stores every day it produces.
        assert (stale.hits, stale.misses) == (0, 1)
        assert sorted(tmp_path.glob("*.fpdns2")) == paths
        warm = FpDnsArtifactCache(tmp_path)
        ExperimentContext(TINY, artifact_cache=warm).dataset(PAPER_DATES[0])
        assert (warm.hits, warm.misses) == (len(paths), 0)

    def test_resident_days_bounds_memory_and_reloads(self, tmp_path):
        """With ``resident_days`` set, at most that many per-entry
        datasets stay in memory; evicted days stay *produced* and
        reload transparently from the artifact cache."""
        cache = FpDnsArtifactCache(tmp_path)
        bounded = ExperimentContext(TINY, artifact_cache=cache,
                                    resident_days=2)
        first = bounded.dataset(PAPER_DATES[0])  # runs the calendar
        # The early day was evicted mid-calendar and reloaded on return.
        assert first.day == PAPER_DATES[0].label
        assert len(bounded._datasets) <= 2
        assert len(bounded._produced) >= len(PAPER_DATES)

        reference = ExperimentContext(
            TINY, artifact_cache=FpDnsArtifactCache(tmp_path))
        expected = reference.dataset(PAPER_DATES[0])
        again = bounded.dataset(PAPER_DATES[0])
        assert again.below == expected.below
        assert again.above == expected.above
        assert len(bounded._datasets) <= 2

    def test_release_day_frees_then_reloads(self, tmp_path):
        cache = FpDnsArtifactCache(tmp_path)
        ctx = ExperimentContext(TINY, artifact_cache=cache)
        day = PAPER_DATES[0]
        before = ctx.dataset(day)
        ctx.digest(day)
        ctx.hit_rates(day)
        ctx.release_day(day)
        assert day.label not in ctx._datasets
        assert day.label not in ctx._digests
        assert day.label not in ctx._hit_rates
        after = ctx.dataset(day)
        assert after is not before
        assert after.below == before.below
        assert after.above == before.above

    def test_release_without_artifact_cache_is_unrecoverable(self):
        ctx = ExperimentContext(TINY)
        day = PAPER_DATES[0]
        ctx.dataset(day)
        ctx.release_day(day)
        with pytest.raises(RuntimeError):
            ctx.dataset(day)

    def test_adhoc_date_after_warm_hits_replays(self, tmp_path):
        cache = FpDnsArtifactCache(tmp_path)
        ExperimentContext(TINY, artifact_cache=cache).dataset(PAPER_DATES[0])

        serial = ExperimentContext(TINY)
        warm = ExperimentContext(TINY,
                                 artifact_cache=FpDnsArtifactCache(tmp_path))
        adhoc = MeasurementDate("ad-hoc-future", 999, 1.0)
        serial.dataset(PAPER_DATES[0])   # runs the standard calendar
        warm.dataset(PAPER_DATES[0])     # loads it from disk instead
        a = serial.dataset(adhoc)
        b = warm.dataset(adhoc)
        # The warm context loaded the calendar from disk, then had to
        # rewarm its serial caches by replay before the ad-hoc day.
        assert warm._replayed > 0
        assert a.below == b.below
        assert a.above == b.above


class TestPdnsBackendSelection:
    def test_default_is_in_memory(self, monkeypatch):
        from repro.pdns.database import PassiveDnsDatabase
        monkeypatch.delenv("REPRO_PDNS_STORE", raising=False)
        ctx = ExperimentContext(SMALL)
        assert isinstance(ctx.pdns_database(), PassiveDnsDatabase)

    def test_env_knob_selects_segmented_store(self, tmp_path, monkeypatch):
        from repro.pdns.store import SegmentedPdnsStore
        monkeypatch.setenv("REPRO_PDNS_STORE", str(tmp_path))
        ctx = ExperimentContext(SMALL)
        store = ctx.pdns_database()
        assert isinstance(store, SegmentedPdnsStore)
        assert store.root.parent == tmp_path
        assert len(store) == 0

    def test_each_run_gets_a_fresh_store(self, tmp_path, monkeypatch):
        from repro.dns.message import RRType
        monkeypatch.setenv("REPRO_PDNS_STORE", str(tmp_path))
        ctx = ExperimentContext(SMALL)
        first = ctx.pdns_database()
        first.ingest_rrs("2011-02-22", [("a.x.com", RRType.A, "1.1.1.1")])
        second = ctx.pdns_database()
        assert second.root != first.root
        assert len(second) == 0

    def test_leftover_store_not_reused(self, tmp_path, monkeypatch):
        from repro.dns.message import RRType
        from repro.pdns.store import SegmentedPdnsStore
        monkeypatch.setenv("REPRO_PDNS_STORE", str(tmp_path))
        leftover = SegmentedPdnsStore(tmp_path / "small-run0")
        leftover.ingest_rrs("2011-02-22",
                            [("a.x.com", RRType.A, "1.1.1.1")])
        ctx = ExperimentContext(SMALL)
        store = ctx.pdns_database()
        assert store.root != leftover.root
        assert len(store) == 0
