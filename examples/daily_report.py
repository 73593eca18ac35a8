#!/usr/bin/env python
"""Operational daily report: the Section III panorama as one command.

Simulates one day at the ISP tap, validates the trace against the
paper-shape calibration invariants (DESIGN.md §5), then prints the
full daily traffic report annotated with the miner's disposable
shares and the cumulative zone-discovery ledger after a second day.

Run:  python examples/daily_report.py
"""

from repro.analysis.summary import build_daily_report_from_digest
from repro.core.classifier import LadTreeClassifier
from repro.core.features import FeatureExtractor
from repro.core.hitrate import hit_rates_from_digest
from repro.core.interning import build_day_digest
from repro.core.labeling import build_training_set
from repro.core.miner import MinerConfig
from repro.core.ranking import DisposableZoneRanker, build_tree_from_digest
from repro.core.tracking import ZoneTracker
from repro.experiments.validation import validate_calibration
from repro.traffic.simulate import (MeasurementDate, PopulationConfig,
                                    SimulatorConfig, TraceSimulator,
                                    WorkloadConfig)


def main() -> None:
    config = SimulatorConfig(
        cache_capacity=8_000,
        population=PopulationConfig(n_popular_sites=100,
                                    n_longtail_sites=2_000,
                                    n_extra_disposable=24,
                                    cdn_objects=5_000),
        workload=WorkloadConfig(events_per_day=20_000, n_clients=250))
    simulator = TraceSimulator(config)

    day1 = build_day_digest(
        simulator.run_day(MeasurementDate("2011-12-01", 335, 0.91)))
    hit_rates = hit_rates_from_digest(day1)

    # Gate: is the trace paper-shaped?
    scorecard = validate_calibration(simulator, day1, hit_rates)
    print(scorecard.render())
    if not scorecard.all_passed:
        print("\nWARNING: calibration invariants failed — experiment "
              "results from this configuration are not paper-comparable.")
    print()

    # Train once, mine daily, track the ledger.
    tree = build_tree_from_digest(day1)
    extractor = FeatureExtractor(tree, hit_rates)
    training = build_training_set(simulator.labeled_zones(), tree, extractor)
    classifier = LadTreeClassifier().fit(training.X, training.y)
    ranker = DisposableZoneRanker(classifier, MinerConfig())

    tracker = ZoneTracker()
    result1 = ranker.run_digest(day1, hit_rates)
    tracker.ingest(result1)

    print(build_daily_report_from_digest(
        day1, hit_rates, disposable_groups=result1.groups).render())

    day2 = build_day_digest(
        simulator.run_day(MeasurementDate("2011-12-02", 336, 0.91)))
    result2 = ranker.run_digest(day2)
    new_zones = tracker.ingest(result2)
    print(f"\nday 2: {new_zones} newly discovered disposable zones; "
          f"ledger now {tracker.total_zones()} zones under "
          f"{tracker.total_2lds()} 2LDs "
          f"({len(tracker.persistent_zones())} seen on both days)")


if __name__ == "__main__":
    main()
