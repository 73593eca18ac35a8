"""Extension — cross-network comparison (the paper's future work).

Runs the full pipeline at two simulated vantage points with different
client bases and intersects the miner outputs: the real disposable
services survive the unanimity quorum, while vantage-point artifacts
(unpopular CDN content) fall out as locally disposable.
"""

from repro.core.classifier import LadTreeClassifier
from repro.core.crossnetwork import compare_networks
from repro.core.features import FeatureExtractor
from repro.core.hitrate import hit_rates_from_digest
from repro.core.interning import build_day_digest
from repro.core.labeling import build_training_set
from repro.core.miner import MinerConfig
from repro.core.ranking import DisposableZoneRanker, build_tree_from_digest
from repro.textutil import format_percent, format_table
from repro.traffic.simulate import (MeasurementDate, PopulationConfig,
                                    SimulatorConfig, TraceSimulator,
                                    WorkloadConfig)


def mine_network(workload_seed: int):
    config = SimulatorConfig(
        cache_capacity=8_000,
        population=PopulationConfig(n_popular_sites=80,
                                    n_longtail_sites=1_500,
                                    n_extra_disposable=20,
                                    cdn_objects=4_000),
        workload=WorkloadConfig(events_per_day=15_000, n_clients=150,
                                seed=workload_seed))
    simulator = TraceSimulator(config)
    digest = build_day_digest(
        simulator.run_day(MeasurementDate("probe", 313, 0.9)))
    hit_rates = hit_rates_from_digest(digest)
    tree = build_tree_from_digest(digest)
    extractor = FeatureExtractor(tree, hit_rates)
    training = build_training_set(simulator.labeled_zones(), tree, extractor)
    classifier = LadTreeClassifier().fit(training.X, training.y)
    return DisposableZoneRanker(classifier, MinerConfig()).run_digest(
        digest, hit_rates).groups


def test_bench_ext_crossnetwork(benchmark):
    report = benchmark.pedantic(
        lambda: compare_networks({"ispA": mine_network(11),
                                  "ispB": mine_network(22),
                                  "ispC": mine_network(33)}),
        rounds=1, iterations=1)
    print()
    rows = [(e.zone, e.depth, format_percent(e.support),
             ",".join(e.networks))
            for e in sorted(report.consensus,
                            key=lambda e: (-e.support, e.zone))[:20]]
    print(format_table(["zone", "depth", "support", "networks"], rows))
    global_zones = {zone for zone, _ in report.global_groups()}
    assert any("mcafee" in zone for zone in global_zones)
    assert len(report.global_groups()) >= 5
