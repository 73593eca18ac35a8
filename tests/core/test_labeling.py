"""Tests for training-set construction from labeled zones."""

import numpy as np
import pytest

from repro.core.features import FEATURE_NAMES, FeatureExtractor
from repro.core.hitrate import HitRateTable, RRHitRate
from repro.core.labeling import LabeledZone, build_training_set
from repro.core.tree import DomainNameTree
from repro.dns.message import RRType


@pytest.fixture
def world():
    disposable = [f"r{i}k2qz9.avqs.mcafee.com" for i in range(6)]
    popular = [f"{label}.bank.com" for label in
               ("www", "mail", "api", "img", "login", "shop")]
    tree = DomainNameTree(disposable + popular)
    rates = {}
    for name in disposable:
        key = (name, RRType.A, "1.1.1.1")
        rates[key] = RRHitRate(key, 1, 1)
    for name in popular:
        key = (name, RRType.A, "2.2.2.2")
        rates[key] = RRHitRate(key, 30, 1)
    extractor = FeatureExtractor(tree, HitRateTable(rates, day="t"))
    return tree, extractor


class TestBuildTrainingSet:
    def test_rows_and_labels(self, world):
        tree, extractor = world
        labels = [
            LabeledZone("avqs.mcafee.com", disposable=True, depth=4),
            LabeledZone("bank.com", disposable=False),
        ]
        training = build_training_set(labels, tree, extractor,
                                      min_group_size=5)
        assert len(training) == 2
        assert training.n_positive == 1
        assert training.n_negative == 1
        assert training.X.shape == (2, len(FEATURE_NAMES))

    def test_depth_restriction(self, world):
        tree, extractor = world
        labels = [LabeledZone("avqs.mcafee.com", disposable=True, depth=99)]
        with pytest.raises(ValueError):
            build_training_set(labels, tree, extractor, min_group_size=5)

    def test_none_depth_labels_all_groups(self, world):
        tree, extractor = world
        # bank.com has one qualifying depth group (depth 3).
        labels = [LabeledZone("bank.com", disposable=False, depth=None)]
        training = build_training_set(labels, tree, extractor,
                                      min_group_size=5)
        assert len(training) == 1
        assert training.provenance == [("bank.com", 3)]

    def test_min_group_size_filters(self, world):
        tree, extractor = world
        labels = [LabeledZone("bank.com", disposable=False)]
        with pytest.raises(ValueError):
            build_training_set(labels, tree, extractor, min_group_size=50)

    def test_absent_zone_contributes_nothing(self, world):
        tree, extractor = world
        labels = [
            LabeledZone("bank.com", disposable=False),
            LabeledZone("ghost.org", disposable=True, depth=3),
        ]
        training = build_training_set(labels, tree, extractor,
                                      min_group_size=5)
        assert len(training) == 1

    def test_provenance_matches_rows(self, world):
        tree, extractor = world
        labels = [
            LabeledZone("avqs.mcafee.com", disposable=True, depth=4),
            LabeledZone("bank.com", disposable=False),
        ]
        training = build_training_set(labels, tree, extractor,
                                      min_group_size=5)
        assert len(training.provenance) == len(training)
        zones = {zone for zone, _ in training.provenance}
        assert zones == {"avqs.mcafee.com", "bank.com"}


class TestSimulatedLabeling:
    def test_simulator_labels_produce_balanced_set(self, tiny_simulator,
                                                   tiny_day):
        from repro.core.hitrate import hit_rates_from_digest
        from repro.core.interning import build_day_digest
        from repro.core.ranking import build_tree_from_digest

        digest = build_day_digest(tiny_day)
        tree = build_tree_from_digest(digest)
        extractor = FeatureExtractor(tree, hit_rates_from_digest(digest))
        training = build_training_set(tiny_simulator.labeled_zones(), tree,
                                      extractor)
        assert training.n_positive >= 10
        assert training.n_negative >= 10
