"""Tests for the shared content-addressed artifact store."""

import os

import pytest

from repro.core.artifact_store import (ArtifactStore, directory_stats,
                                       prune_directory)
from repro.core.container import FormatError


def decode_utf8(data):
    return data.decode("utf-8")


class TestStoreLoad:
    def test_roundtrip_and_counters(self, tmp_path):
        store = ArtifactStore(tmp_path, ".blob")
        assert store.load("k", decode_utf8) is None
        assert (store.hits, store.misses) == (0, 1)
        store.store_bytes("k", b"payload")
        assert store.load("k", decode_utf8) == "payload"
        assert (store.hits, store.misses) == (1, 1)

    def test_creates_root(self, tmp_path):
        root = tmp_path / "a" / "b"
        ArtifactStore(root, ".blob")
        assert root.is_dir()

    def test_invalid_suffix_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            ArtifactStore(tmp_path, "")
        with pytest.raises(ValueError):
            ArtifactStore(tmp_path, ".tmp")

    def test_zero_length_blob_is_a_miss(self, tmp_path):
        store = ArtifactStore(tmp_path, ".blob")
        store.path_for("k").write_bytes(b"")
        assert store.load("k", decode_utf8) is None
        assert store.misses == 1

    def test_decoder_exception_in_miss_on_is_a_miss(self, tmp_path):
        store = ArtifactStore(tmp_path, ".blob")
        store.store_bytes("k", b"\xff\xfe")

        def decode_strict(data):
            return data.decode("ascii")

        assert store.load("k", decode_strict,
                          miss_on=(UnicodeDecodeError,)) is None
        assert store.misses == 1

    def test_undeclared_decoder_exception_propagates(self, tmp_path):
        store = ArtifactStore(tmp_path, ".blob")
        store.store_bytes("k", b"data")

        def decode_broken(data):
            raise RuntimeError("unrelated bug")

        with pytest.raises(RuntimeError):
            store.load("k", decode_broken)

    def test_corrupt_artifact_from_decoder_is_a_miss(self, tmp_path):
        store = ArtifactStore(tmp_path, ".blob")
        store.store_bytes("k", b"data")

        def decode_validating(data):
            raise FormatError("bad checksum")

        assert store.load("k", decode_validating) is None


class TestAtomicity:
    def test_no_temp_files_after_publish(self, tmp_path):
        store = ArtifactStore(tmp_path, ".blob")
        store.store_bytes("k", b"payload")
        assert list(tmp_path.glob("*.tmp")) == []

    def test_temp_cleaned_up_on_write_failure(self, tmp_path):
        store = ArtifactStore(tmp_path, ".blob")
        with pytest.raises(TypeError):
            store.store_bytes("k", "not bytes")  # write() rejects str
        assert list(tmp_path.glob("*.tmp")) == []
        assert store.load("k", decode_utf8) is None

    def test_overwrite_is_last_writer_wins(self, tmp_path):
        store = ArtifactStore(tmp_path, ".blob")
        store.store_bytes("k", b"first")
        store.store_bytes("k", b"second")
        assert store.load("k", decode_utf8) == "second"
        assert len(store) == 1


class TestAccounting:
    def test_keys_and_len(self, tmp_path):
        store = ArtifactStore(tmp_path, ".blob")
        store.store_bytes("b", b"1")
        store.store_bytes("a", b"22")
        assert store.keys() == ["a", "b"]
        assert len(store) == 2

    def test_total_bytes(self, tmp_path):
        store = ArtifactStore(tmp_path, ".blob")
        store.store_bytes("a", b"123")
        store.store_bytes("b", b"4567")
        assert store.total_bytes() == 7

    def test_delete(self, tmp_path):
        store = ArtifactStore(tmp_path, ".blob")
        store.store_bytes("k", b"x")
        assert store.delete("k") is True
        assert store.delete("k") is False
        assert len(store) == 0

    def test_suffix_scoped(self, tmp_path):
        """Two stores sharing a directory see only their own blobs."""
        blobs = ArtifactStore(tmp_path, ".blob")
        other = ArtifactStore(tmp_path, ".other")
        blobs.store_bytes("k", b"1")
        other.store_bytes("k", b"22")
        assert len(blobs) == 1 and len(other) == 1
        assert blobs.total_bytes() == 1
        assert other.load("k", decode_utf8) == "22"


class TestPrune:
    def _store_with_ages(self, tmp_path):
        store = ArtifactStore(tmp_path, ".blob")
        for index, key in enumerate(["old", "mid", "new"]):
            store.store_bytes(key, b"x" * 10)
            os.utime(store.path_for(key), (index, index))
        return store

    def test_prune_removes_lru_first(self, tmp_path):
        store = self._store_with_ages(tmp_path)
        removed = store.prune(max_bytes=20)
        assert removed == ["old"]
        assert sorted(store.keys()) == ["mid", "new"]

    def test_prune_to_zero_clears_store(self, tmp_path):
        store = self._store_with_ages(tmp_path)
        removed = store.prune(max_bytes=0)
        assert sorted(removed) == ["mid", "new", "old"]
        assert len(store) == 0

    def test_prune_noop_when_under_budget(self, tmp_path):
        store = self._store_with_ages(tmp_path)
        assert store.prune(max_bytes=1000) == []
        assert len(store) == 3

    def test_negative_budget_rejected(self, tmp_path):
        store = ArtifactStore(tmp_path, ".blob")
        with pytest.raises(ValueError):
            store.prune(max_bytes=-1)

    def test_load_refreshes_recency(self, tmp_path):
        store = self._store_with_ages(tmp_path)
        # Touch "old" via load: it becomes most-recently-used, so a
        # prune to a one-blob budget keeps it and drops the others.
        assert store.load("old", decode_utf8) == "x" * 10
        removed = store.prune(max_bytes=10)
        assert sorted(removed) == ["mid", "new"]
        assert store.keys() == ["old"]


class TestDirectoryTools:
    def test_directory_stats_groups_by_suffix(self, tmp_path):
        ArtifactStore(tmp_path, ".fpdns2").store_bytes("a", b"12345")
        ArtifactStore(tmp_path, ".mining.json").store_bytes("b", b"67")
        stats = directory_stats(tmp_path)
        assert stats.n_artifacts == 2
        assert stats.total_bytes == 7
        assert dict((s, (c, n)) for s, c, n in stats.by_suffix) == {
            ".fpdns2": (1, 5), ".mining.json": (1, 2)}
        rendered = stats.render()
        assert ".fpdns2" in rendered and "7 bytes" in rendered

    def test_directory_stats_skips_temp_files(self, tmp_path):
        (tmp_path / "k.abc123.tmp").write_bytes(b"half-written")
        assert directory_stats(tmp_path).n_artifacts == 0

    def test_prune_directory_spans_suffixes(self, tmp_path):
        fpdns = ArtifactStore(tmp_path, ".fpdns2")
        mining = ArtifactStore(tmp_path, ".mining.json")
        fpdns.store_bytes("day", b"x" * 10)
        mining.store_bytes("result", b"y" * 10)
        os.utime(fpdns.path_for("day"), (1, 1))
        os.utime(mining.path_for("result"), (2, 2))
        removed = prune_directory(tmp_path, max_bytes=10)
        assert removed == ["day.fpdns2"]
        assert mining.load("result", decode_utf8) == "y" * 10
