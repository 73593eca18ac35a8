"""Ablation — above/below traffic ratio vs event density.

The paper observes an order of magnitude less traffic above the
recursives than below, at ~200 queries per RR per day.  The simulator
runs at laptop density (~5 queries per RR); this bench sweeps
events_per_day and shows the ratio falling toward the paper's regime
as density grows — the justification for treating the Figure 2 gap as
a shape, not an absolute (DESIGN.md Section 5).
"""

from repro.textutil import format_table
from repro.traffic.population import PopulationConfig
from repro.traffic.simulate import (MeasurementDate, SimulatorConfig,
                                    TraceSimulator)
from repro.traffic.workload import WorkloadConfig


def ratio_at(events_per_day: int) -> float:
    config = SimulatorConfig(
        cache_capacity=25_000,
        population=PopulationConfig(n_popular_sites=150,
                                    n_longtail_sites=3_000,
                                    n_extra_disposable=24,
                                    cdn_objects=10_000),
        workload=WorkloadConfig(events_per_day=events_per_day,
                                n_clients=300))
    simulator = TraceSimulator(config)
    simulator.run_day(MeasurementDate("warm", 100, 0.5))
    day = simulator.run_day(MeasurementDate("probe", 101, 0.5))
    return day.above_volume() / day.below_volume()


def test_bench_ablation_scale(benchmark):
    scales = [8_000, 32_000, 96_000]
    ratios = benchmark.pedantic(
        lambda: [ratio_at(scale) for scale in scales],
        rounds=1, iterations=1)
    print()
    print(format_table(["events/day", "above/below ratio"],
                       [(s, f"{r:.3f}") for s, r in zip(scales, ratios)]))
    # Density up -> ratio down, toward the paper's order-of-magnitude gap.
    assert ratios[0] > ratios[-1]
    assert ratios[-1] < 0.6
