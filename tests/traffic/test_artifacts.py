"""Tests for the on-disk fpDNS artifact cache."""

import gzip

import pytest

from repro.dns.message import RCode, RRType
from repro.pdns.columnar import FPDNS2_MAGIC, FPDNS2_VERSION
from repro.core.records import FpDnsDataset, FpDnsEntry
from repro.traffic.artifacts import (ARTIFACT_FORMAT, COLUMNAR_SUFFIX,
                                     FpDnsArtifactCache, artifact_key)
from repro.traffic.population import PopulationConfig
from repro.traffic.simulate import PAPER_DATES, SimulatorConfig
from repro.traffic.workload import WorkloadConfig


def make_dataset(day="2011-02-01"):
    ds = FpDnsDataset(day=day)
    ds.below = [FpDnsEntry(10.123456789, 3, "www.a.com", RRType.A,
                           RCode.NOERROR, 300, "1.1.1.1"),
                FpDnsEntry(11.0, 4, "nx.b.com", RRType.A, RCode.NXDOMAIN)]
    ds.above = [FpDnsEntry(10.123456789, None, "www.a.com", RRType.A,
                           RCode.NOERROR, 600, "1.1.1.1")]
    return ds


class TestArtifactKey:
    def test_deterministic(self):
        config = SimulatorConfig()
        key_a = artifact_key(config, PAPER_DATES[:2])
        key_b = artifact_key(SimulatorConfig(), list(PAPER_DATES[:2]))
        assert key_a == key_b

    def test_config_change_invalidates(self):
        base = artifact_key(SimulatorConfig(), PAPER_DATES[:1])
        assert artifact_key(SimulatorConfig(cache_capacity=12_345),
                            PAPER_DATES[:1]) != base
        assert artifact_key(
            SimulatorConfig(workload=WorkloadConfig(seed=7)),
            PAPER_DATES[:1]) != base
        assert artifact_key(
            SimulatorConfig(population=PopulationConfig(n_popular_sites=7)),
            PAPER_DATES[:1]) != base

    def test_history_prefix_matters(self):
        """The same day after a different prefix is a different artifact
        (resolver caches persist across days)."""
        config = SimulatorConfig()
        key_fresh = artifact_key(config, PAPER_DATES[1:2])
        key_after = artifact_key(config, PAPER_DATES[:2])
        assert key_fresh != key_after

    def test_n_events_matters(self):
        config = SimulatorConfig()
        assert artifact_key(config, PAPER_DATES[:1], n_events=100) != \
            artifact_key(config, PAPER_DATES[:1])

    def test_empty_history_rejected(self):
        with pytest.raises(ValueError):
            artifact_key(SimulatorConfig(), [])

    def test_format_version_in_key_material(self):
        # Guard: bumping ARTIFACT_FORMAT must invalidate old keys.
        assert ARTIFACT_FORMAT == "repro-fpdns-cache-v1"


class TestCacheStore:
    def test_miss_then_hit(self, tmp_path):
        cache = FpDnsArtifactCache(tmp_path)
        key = artifact_key(SimulatorConfig(), PAPER_DATES[:1])
        assert cache.load(key) is None
        assert (cache.hits, cache.misses) == (0, 1)
        dataset = make_dataset()
        cache.store(key, dataset)
        loaded = cache.load(key)
        assert (cache.hits, cache.misses) == (1, 1)
        assert loaded.day == dataset.day
        assert loaded.below == dataset.below
        assert loaded.above == dataset.above

    def test_lossless_timestamps(self, tmp_path):
        """Full float precision survives the artifact round trip."""
        cache = FpDnsArtifactCache(tmp_path)
        cache.store("k", make_dataset())
        loaded = cache.load("k")
        assert loaded.below[0].timestamp == 10.123456789

    def test_config_change_misses(self, tmp_path):
        cache = FpDnsArtifactCache(tmp_path)
        cache.store(artifact_key(SimulatorConfig(), PAPER_DATES[:1]),
                    make_dataset())
        other = artifact_key(SimulatorConfig(cache_capacity=999),
                             PAPER_DATES[:1])
        assert cache.load(other) is None

    def test_corrupt_artifact_is_a_miss(self, tmp_path):
        cache = FpDnsArtifactCache(tmp_path)
        cache.store("k", make_dataset())
        # Truncate the blob mid-payload.
        path = cache.path_for("k")
        data = path.read_bytes()
        path.write_bytes(data[:len(data) // 2])
        assert cache.load("k") is None
        assert cache.misses == 1

    def test_not_gzip_is_a_miss(self, tmp_path):
        cache = FpDnsArtifactCache(tmp_path)
        cache.path_for("k").write_text("plain text, not gzip")
        assert cache.load("k") is None

    def test_wrong_format_is_a_miss(self, tmp_path):
        cache = FpDnsArtifactCache(tmp_path)
        with gzip.open(cache.path_for("k"), "wt") as handle:
            handle.write("#some-other-format\n")
        assert cache.load("k") is None

    def test_len_counts_artifacts(self, tmp_path):
        cache = FpDnsArtifactCache(tmp_path)
        assert len(cache) == 0
        cache.store("k1", make_dataset("d1"))
        cache.store("k2", make_dataset("d2"))
        assert len(cache) == 2

    def test_store_is_atomic(self, tmp_path):
        cache = FpDnsArtifactCache(tmp_path)
        cache.store("k", make_dataset())
        # No .tmp files left behind after a publish.
        assert list(tmp_path.glob("*.tmp")) == []

    def test_creates_root(self, tmp_path):
        root = tmp_path / "nested" / "cache"
        FpDnsArtifactCache(root)
        assert root.is_dir()


class TestFormatSelection:
    def test_only_columnar_is_accepted(self, tmp_path):
        assert FpDnsArtifactCache(tmp_path, "columnar").path_for("k").name \
            == f"k{COLUMNAR_SUFFIX}"
        with pytest.raises(ValueError, match="tsv"):
            FpDnsArtifactCache(tmp_path, "tsv")


@pytest.mark.parametrize("artifact_format", ["columnar"])
class TestBothBackends:
    """The store/load contract, for the backend named explicitly."""

    def test_roundtrip(self, tmp_path, artifact_format):
        cache = FpDnsArtifactCache(tmp_path, artifact_format=artifact_format)
        dataset = make_dataset()
        cache.store("k", dataset)
        loaded = cache.load("k")
        assert loaded.day == dataset.day
        assert loaded.below == dataset.below
        assert loaded.above == dataset.above
        assert loaded == dataset

    def test_corruption_matrix_every_mode_is_a_miss(self, tmp_path,
                                                    artifact_format):
        """Truncation, bitflip, wrong version/format, zero-length,
        wrongly shaped header: always a miss, never an exception."""
        cache = FpDnsArtifactCache(tmp_path, artifact_format=artifact_format)
        cache.store("k", make_dataset())
        pristine = cache.path_for("k").read_bytes()

        def corrupt(data):
            cache.path_for("k").write_bytes(data)
            assert cache.load("k") is None

        corrupt(pristine[:len(pristine) // 2])        # truncated
        flipped = bytearray(pristine)
        flipped[-1] ^= 0xFF
        corrupt(bytes(flipped))                       # payload bitflip
        corrupt(b"#some-other-format\ngarbage")       # wrong format tag
        corrupt(b"")                                  # zero-length
        corrupt(FPDNS2_MAGIC + b"[1]\n")              # header not an object
        current = f'"version":{FPDNS2_VERSION}'.encode()
        corrupt(pristine.replace(current, b'"version":1'))  # old version
        corrupt(pristine.replace(current, current + b',"payload_bytes":-1'))
        assert cache.misses == 7
        # The pristine bytes still load fine afterwards.
        cache.path_for("k").write_bytes(pristine)
        assert cache.load("k") == make_dataset()

    def test_atomic_publish_leaves_no_temps(self, tmp_path,
                                            artifact_format):
        cache = FpDnsArtifactCache(tmp_path, artifact_format=artifact_format)
        cache.store("k", make_dataset())
        assert list(tmp_path.glob("*.tmp")) == []


class TestCrossFormatEquality:
    def test_backends_share_key_material(self):
        """Keys name the day, not the blob layout: a new fpDNS-v2
        version keeps every key, so a stale blob is overwritten in place
        instead of stranded."""
        key = artifact_key(SimulatorConfig(), PAPER_DATES[:1])
        assert ARTIFACT_FORMAT in ("repro-fpdns-cache-v1",)
        assert key == artifact_key(SimulatorConfig(), PAPER_DATES[:1])
