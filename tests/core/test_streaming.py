"""Tests for the streaming pipeline — must match the batch path."""

import numpy as np
import pytest

from repro.core.hitrate import hit_rates_from_digest
from repro.core.interning import build_day_digest
from repro.core.miner import MinerConfig
from repro.core.ranking import build_tree_from_digest
from repro.core.streaming import StreamingDayBuilder, mine_stream
from repro.dns.message import RCode, RRType
from repro.core.records import FpDnsDataset, FpDnsEntry


def stream_of(dataset):
    for entry in dataset.below:
        yield "B", entry
    for entry in dataset.above:
        yield "A", entry


class TestEquivalenceWithBatch:
    def test_hit_rates_match(self, tiny_day):
        builder = StreamingDayBuilder(day=tiny_day.day)
        builder.observe_many(stream_of(tiny_day))
        _, streamed = builder.finish()
        batch = hit_rates_from_digest(build_day_digest(tiny_day))
        assert len(streamed) == len(batch)
        for record in batch.records():
            other = streamed.get(record.key)
            assert other is not None
            assert other.queries_below == record.queries_below
            assert other.misses_above == record.misses_above

    def test_tree_matches(self, tiny_day):
        builder = StreamingDayBuilder()
        builder.observe_many(stream_of(tiny_day))
        tree, _ = builder.finish()
        batch_tree = build_tree_from_digest(build_day_digest(tiny_day))
        assert sorted(tree.black_names()) == sorted(batch_tree.black_names())

    def test_stats_match_dataset(self, tiny_day):
        builder = StreamingDayBuilder()
        builder.observe_many(stream_of(tiny_day))
        builder.finish()
        assert builder.stats.below_entries == tiny_day.below_volume()
        assert builder.stats.above_entries == tiny_day.above_volume()
        assert builder.stats.below_nxdomain == \
            tiny_day.nxdomain_volume_below()
        assert builder.stats.resolved_names == \
            len(tiny_day.resolved_domains())
        assert builder.stats.distinct_rrs >= len(tiny_day.distinct_rrs())


class TestMineStream:
    def test_streaming_mining_matches_batch(self, tiny_day, tiny_simulator):
        """The streaming miner must flag the same (zone, depth) groups
        as the batch ranker given the same classifier."""
        from repro.core.classifier.base import BinaryClassifier

        class ChrOracle(BinaryClassifier):
            def fit(self, X, y):
                return self

            def predict_proba(self, X):
                X = np.asarray(X, dtype=float)
                return np.where(X[:, 7] > 0.9, 0.99, 0.01)

        config = MinerConfig(min_group_size=5)
        findings, stats = mine_stream(stream_of(tiny_day), ChrOracle(),
                                      config, day=tiny_day.day)
        from repro.core.ranking import DisposableZoneRanker
        batch = DisposableZoneRanker(ChrOracle(), config).run_digest(
            build_day_digest(tiny_day))
        assert {f.as_group_key() for f in findings} == batch.groups
        assert stats.below_entries > 0


class TestBuilderGuards:
    def test_observe_after_finish_raises(self):
        builder = StreamingDayBuilder()
        builder.finish()
        entry = FpDnsEntry(0.0, 1, "a.com", RRType.A, RCode.NOERROR, 60,
                           "1.1.1.1")
        with pytest.raises(RuntimeError):
            builder.observe("B", entry)

    def test_bad_side_rejected(self):
        builder = StreamingDayBuilder()
        entry = FpDnsEntry(0.0, 1, "a.com", RRType.A, RCode.NOERROR, 60,
                           "1.1.1.1")
        with pytest.raises(ValueError):
            builder.observe("Q", entry)

    def test_file_stream_end_to_end(self, tiny_day, tmp_path):
        """Disk-backed streaming: save the day, mine from the file
        iterator without materialising the dataset."""
        from repro.pdns.io import iter_fpdns_entries, save_fpdns
        from repro.core.classifier.base import BinaryClassifier

        class AlwaysNo(BinaryClassifier):
            def fit(self, X, y):
                return self

            def predict_proba(self, X):
                return np.zeros(np.asarray(X).shape[0])

        path = tmp_path / "day.tsv.gz"
        save_fpdns(tiny_day, path)
        findings, stats = mine_stream(iter_fpdns_entries(path), AlwaysNo())
        assert findings == []
        assert stats.below_entries == tiny_day.below_volume()
