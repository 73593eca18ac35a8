#!/usr/bin/env python
"""Section VI-A in action: how disposable churn degrades DNS caching.

Replays the same one-day query stream against resolver clusters of
shrinking cache capacity, once with the disposable traffic and once
without, and reports the premature ("live") evictions, the hit rate
experienced by *non-disposable* queries, and mean resolution latency.

Run:  python examples/cache_impact_study.py
"""

from repro.textutil import format_percent, format_table
from repro.impact.cache_pressure import run_cache_pressure_study
from repro.traffic.simulate import (MeasurementDate, PopulationConfig,
                                    SimulatorConfig, TraceSimulator,
                                    WorkloadConfig)


def main() -> None:
    config = SimulatorConfig(
        population=PopulationConfig(n_popular_sites=100,
                                    n_longtail_sites=2_000,
                                    n_extra_disposable=24,
                                    cdn_objects=5_000),
        workload=WorkloadConfig(events_per_day=25_000, n_clients=250))
    simulator = TraceSimulator(config)
    print("generating one late-2011 day of query events ...")
    events = simulator.workload.generate_day(400, year_fraction=0.95)
    n_disposable = sum(1 for e in events if e.category == "disposable")
    print(f"  {len(events):,} events, {n_disposable:,} "
          f"({n_disposable / len(events):.1%}) disposable\n")

    capacities = [500, 1_000, 2_000, 4_000, 8_000]
    comparisons = run_cache_pressure_study(simulator.authority, events,
                                           capacities, n_servers=2)

    rows = []
    for comparison in comparisons:
        loaded = comparison.with_disposable
        clean = comparison.without_disposable
        rows.append((
            comparison.capacity,
            format_percent(loaded.non_disposable_hit_rate),
            format_percent(clean.non_disposable_hit_rate),
            format_percent(comparison.hit_rate_degradation, 2),
            comparison.extra_live_evictions,
            f"{loaded.mean_latency_ms:.2f} ms",
            f"{clean.mean_latency_ms:.2f} ms"))
    print(format_table(
        ["cache capacity", "ND hit rate (with disp.)",
         "ND hit rate (without)", "degradation",
         "extra premature evictions", "latency (with)",
         "latency (without)"], rows))

    worst = max(comparisons, key=lambda c: c.hit_rate_degradation)
    print(f"\nworst degradation: {worst.hit_rate_degradation:.2%} of "
          f"non-disposable hit rate at capacity {worst.capacity} — the "
          "paper's premature-eviction effect, visible whenever the cache "
          "is small relative to the disposable churn.")


if __name__ == "__main__":
    main()
