"""Tests for cross-network disposable-zone comparison."""

import pytest

from repro.core.crossnetwork import compare_networks


GROUPS_A = {("avqs.mcafee.com", 12), ("zen.spamhaus.org", 7),
            ("akamai.net", 4)}
GROUPS_B = {("avqs.mcafee.com", 12), ("zen.spamhaus.org", 7),
            ("local-cdn.net", 4)}
GROUPS_C = {("avqs.mcafee.com", 12), ("zen.spamhaus.org", 7)}


class TestCompareNetworks:
    def test_unanimous_quorum(self):
        report = compare_networks(
            {"ispA": GROUPS_A, "ispB": GROUPS_B, "ispC": GROUPS_C})
        global_groups = report.global_groups()
        assert global_groups == {("avqs.mcafee.com", 12),
                                 ("zen.spamhaus.org", 7)}

    def test_local_zones_identified(self):
        report = compare_networks(
            {"ispA": GROUPS_A, "ispB": GROUPS_B, "ispC": GROUPS_C})
        local = {entry.group for entry in report.locally_disposable()}
        assert ("akamai.net", 4) in local
        assert ("local-cdn.net", 4) in local

    def test_majority_quorum(self):
        report = compare_networks(
            {"ispA": GROUPS_A, "ispB": GROUPS_B}, quorum=0.5)
        # Everything seen in at least one of two networks with q=0.5.
        assert ("akamai.net", 4) in report.global_groups()

    def test_support_values(self):
        report = compare_networks(
            {"ispA": GROUPS_A, "ispB": GROUPS_B, "ispC": GROUPS_C})
        assert report.support_of("avqs.mcafee.com", 12) == pytest.approx(1.0)
        assert report.support_of("akamai.net", 4) == pytest.approx(1 / 3)
        assert report.support_of("ghost.org", 3) == 0.0

    def test_networks_recorded(self):
        report = compare_networks({"ispA": GROUPS_A, "ispB": GROUPS_B})
        entry = next(e for e in report.consensus
                     if e.group == ("akamai.net", 4))
        assert entry.networks == ("ispA",)

    def test_single_network_everything_global(self):
        report = compare_networks({"only": GROUPS_A})
        assert report.global_groups() == GROUPS_A

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            compare_networks({})

    def test_rejects_bad_quorum(self):
        with pytest.raises(ValueError):
            compare_networks({"a": GROUPS_A}, quorum=0.0)


class TestCrossNetworkOnSimulators:
    def test_two_vantage_points_agree_on_services(self):
        """Two ISPs with different client bases watching the same
        Internet: the real disposable services are flagged in both,
        so they survive the unanimity quorum."""
        from repro.core.classifier import LadTreeClassifier
        from repro.core.features import FeatureExtractor
        from repro.core.hitrate import hit_rates_from_digest
        from repro.core.interning import build_day_digest
        from repro.core.labeling import build_training_set
        from repro.core.miner import MinerConfig
        from repro.core.ranking import (DisposableZoneRanker,
                                        build_tree_from_digest)
        from repro.traffic.simulate import (MeasurementDate,
                                            PopulationConfig,
                                            SimulatorConfig,
                                            TraceSimulator, WorkloadConfig)

        def mine_network(workload_seed):
            config = SimulatorConfig(
                cache_capacity=3_000,
                population=PopulationConfig(n_popular_sites=40,
                                            n_longtail_sites=400,
                                            n_extra_disposable=6,
                                            cdn_objects=1_500),
                workload=WorkloadConfig(events_per_day=8_000, n_clients=80,
                                        seed=workload_seed))
            simulator = TraceSimulator(config)
            day = simulator.run_day(MeasurementDate("probe", 313, 0.9))
            digest = build_day_digest(day)
            hit_rates = hit_rates_from_digest(digest)
            tree = build_tree_from_digest(digest)
            extractor = FeatureExtractor(tree, hit_rates)
            training = build_training_set(simulator.labeled_zones(), tree,
                                          extractor)
            classifier = LadTreeClassifier().fit(training.X, training.y)
            ranker = DisposableZoneRanker(classifier, MinerConfig())
            return ranker.run_digest(digest, hit_rates).groups

        report = compare_networks({"ispA": mine_network(1),
                                   "ispB": mine_network(2)})
        global_zones = {zone for zone, _ in report.global_groups()}
        assert any("mcafee" in zone for zone in global_zones)
        assert len(report.global_groups()) >= 5
