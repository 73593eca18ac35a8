#!/usr/bin/env python
"""Quickstart: discover disposable DNS zones in simulated ISP traffic.

This walks the full pipeline of the paper in ~30 seconds:

1. simulate one day of ISP DNS traffic (clients -> recursive resolver
   cluster -> authoritative hierarchy) with a passive-DNS tap,
2. compute per-record domain/cache hit rates from the tap's two
   streams (Eq. 1-2),
3. build the domain name tree and extract the features of Section V-A,
4. train the LAD-tree classifier on labeled zones and run Algorithm 1,
5. print the discovered disposable zones.

Run:  python examples/quickstart.py
"""

from repro.core.classifier import LadTreeClassifier
from repro.core.features import FeatureExtractor
from repro.core.hitrate import hit_rates_from_digest
from repro.core.interning import build_day_digest
from repro.core.labeling import build_training_set
from repro.core.miner import DisposableZoneMiner, MinerConfig
from repro.core.ranking import build_tree_from_digest
from repro.traffic.simulate import (MeasurementDate, PopulationConfig,
                                    SimulatorConfig, TraceSimulator,
                                    WorkloadConfig)


def main() -> None:
    # 1. Simulate one day of ISP traffic.
    config = SimulatorConfig(
        cache_capacity=8_000,
        population=PopulationConfig(n_popular_sites=100,
                                    n_longtail_sites=2_000,
                                    n_extra_disposable=24,
                                    cdn_objects=5_000),
        workload=WorkloadConfig(events_per_day=25_000, n_clients=250))
    simulator = TraceSimulator(config)
    day = simulator.run_day(MeasurementDate("2011-11-10", 313, 0.85))
    print(f"simulated day: {day.below_volume():,} answers below the "
          f"resolvers, {day.above_volume():,} above")
    print(f"  {len(day.queried_domains()):,} distinct queried names, "
          f"{len(day.resolved_domains()):,} resolved, "
          f"{len(day.distinct_rrs()):,} distinct resource records")

    # 2. Hit rates from the two monitored streams, via the day's
    #    columnar digest (one pass over the entries).
    digest = build_day_digest(day)
    hit_rates = hit_rates_from_digest(digest)
    print(f"  zero-DHR long tail: {hit_rates.zero_dhr_fraction():.1%} of RRs")

    # 3. Domain name tree + feature extractor.
    tree = build_tree_from_digest(digest)
    extractor = FeatureExtractor(tree, hit_rates)

    # 4. Train on the labeled zones and mine (Algorithm 1, theta=0.9).
    training = build_training_set(simulator.labeled_zones(), tree, extractor)
    print(f"training set: {training.n_positive} disposable / "
          f"{training.n_negative} non-disposable zones")
    classifier = LadTreeClassifier().fit(training.X, training.y)
    miner = DisposableZoneMiner(classifier, MinerConfig(threshold=0.9))
    findings = miner.mine(tree, extractor)

    # 5. Report.
    print(f"\ndiscovered {len(findings)} disposable (zone, depth) groups:")
    for finding in sorted(findings, key=lambda f: -f.group_size)[:15]:
        print(f"  {finding.zone:<40s} depth={finding.depth}  "
              f"confidence={finding.confidence:.2f}  "
              f"names={finding.group_size}")


if __name__ == "__main__":
    main()
