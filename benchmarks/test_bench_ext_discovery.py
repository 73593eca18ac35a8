"""Extension — cumulative zone discovery across the measurement year.

The paper's deployment "discovered 14,488 new disposable zones" over
11 months of daily runs.  This bench accumulates the daily miner
output across all 19 simulated days (6 spot dates + the 13-day
window) into a ZoneTracker and prints the discovery curve, zone/2LD
totals, and persistence split.
"""

from repro.core.tracking import ZoneTracker
from repro.textutil import format_table
from repro.traffic.simulate import PAPER_DATES, RPDNS_WINDOW_DATES


def build_tracker(ctx):
    dates = sorted({d.label: d for d in
                    [*PAPER_DATES, *RPDNS_WINDOW_DATES]}.values(),
                   key=lambda d: d.day_index)
    tracker = ZoneTracker()
    for date in dates:
        tracker.ingest(ctx.mining_result(date))
    return tracker


def test_bench_ext_discovery(benchmark, medium_context):
    build_tracker(medium_context)          # warm the mining caches
    tracker = benchmark.pedantic(build_tracker, args=(medium_context,),
                                 rounds=2, iterations=1)
    print()
    print(format_table(["day", "cumulative zones"],
                       tracker.discovery_curve()))
    print(f"total zones: {tracker.total_zones()}  "
          f"2LDs: {tracker.total_2lds()}  "
          f"persistent (>=5 days): "
          f"{len(tracker.persistent_zones(min_days=5))}  "
          f"one-day wonders: {len(tracker.one_day_wonders())}")
    # Shape: inventory grows then saturates (the synthetic Internet is
    # finite); stable services persist across many days.
    curve = [count for _, count in tracker.discovery_curve()]
    assert curve == sorted(curve)
    assert tracker.total_zones() >= 20
    assert len(tracker.persistent_zones(min_days=5)) >= 10
    assert tracker.total_2lds() <= tracker.total_zones()
