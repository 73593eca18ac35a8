"""Extension — scenario comparison on the calibration scorecard.

Runs one probe day per named scenario and prints each scenario's
headline statistics side by side: the counterfactuals behind the
paper's claims (frozen growth, doubled disposable load, RFC 2308
compliance) at a glance.
"""

from dataclasses import replace

from repro.analysis.summary import build_daily_report_from_digest
from repro.core.interning import build_day_digest
from repro.textutil import format_percent, format_table
from repro.traffic.scenarios import scenario, scenario_names
from repro.traffic.simulate import MeasurementDate, TraceSimulator


def probe(name: str):
    config = scenario(name, events_per_day=15_000, n_clients=200)
    config.population = replace(config.population, n_popular_sites=80,
                                n_longtail_sites=1_500,
                                n_extra_disposable=20, cdn_objects=4_000)
    simulator = TraceSimulator(config)
    simulator.run_day(MeasurementDate("warm", 330, 0.9))
    day = simulator.run_day(MeasurementDate("probe", 331, 0.9))
    report = build_daily_report_from_digest(
        build_day_digest(day),
        disposable_groups=simulator.disposable_truth())
    return name, report


def test_bench_ext_scenarios(benchmark):
    reports = benchmark.pedantic(
        lambda: [probe(name) for name in scenario_names()],
        rounds=1, iterations=1)
    rows = []
    by_name = {}
    for name, report in reports:
        by_name[name] = report
        rows.append((name,
                     f"{report.volumes.above_below_ratio:.2f}",
                     format_percent(report.volumes.nxdomain_share_above),
                     format_percent(report.disposable_resolved_fraction),
                     format_percent(report.zero_dhr_fraction)))
    print()
    print(format_table(["scenario", "above/below", "NX above",
                        "disposable resolved", "zero-DHR"], rows))
    # Headline contrasts hold:
    assert (by_name["disposable_heavy"].disposable_resolved_fraction
            > by_name["paper_year"].disposable_resolved_fraction)
    assert (by_name["rfc2308_compliant"].volumes.nxdomain_share_above
            < by_name["paper_year"].volumes.nxdomain_share_above)
