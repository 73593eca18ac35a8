#!/usr/bin/env python
"""Track disposable-zone growth across the paper's 2011 calendar.

Reproduces the deployed-system view of Sections V-C and VI: train the
miner once (on the 11/10 labeling day, as the authors did), then run
the daily ranking pipeline of Figure 10 over the six measurement dates
and report the Figure 13 growth series plus a Figure 11-style summary.

Run:  python examples/mine_disposable_zones.py
"""

from repro.analysis.growth import growth_series
from repro.experiments.context import SMALL, ExperimentContext
from repro.textutil import format_percent, format_table
from repro.traffic.simulate import PAPER_DATES


def main() -> None:
    context = ExperimentContext(SMALL)

    print("training the LAD-tree classifier on the 2011-11-10 labeling "
          "day ...")
    training = context.training_set()
    print(f"  {training.n_positive} disposable zones, "
          f"{training.n_negative} non-disposable zones\n")

    print("running the daily disposable-zone ranking over the six "
          "measurement dates ...")
    results = [context.mining_result(date) for date in PAPER_DATES]
    series = growth_series(results)

    rows = []
    for point in series.points:
        rows.append((point.day,
                     format_percent(point.queried_fraction),
                     format_percent(point.resolved_fraction),
                     format_percent(point.rr_fraction),
                     point.n_disposable_zones,
                     point.n_disposable_2lds))
    print(format_table(
        ["date", "disposable/queried", "disposable/resolved",
         "disposable RRs", "zones", "2LDs"], rows))

    print()
    print(f"growth over the year: queried "
          f"{format_percent(series.first.queried_fraction)} -> "
          f"{format_percent(series.last.queried_fraction)}, "
          f"resolved {format_percent(series.first.resolved_fraction)} -> "
          f"{format_percent(series.last.resolved_fraction)}, "
          f"RRs {format_percent(series.first.rr_fraction)} -> "
          f"{format_percent(series.last.rr_fraction)}")
    print("(paper: 23.1%->27.6%, 27.6%->37.2%, 38.3%->65.5%)")

    december = results[-1]
    print(f"\ntop disposable zones on {december.day}:")
    for finding in december.ranked_findings()[:12]:
        print(f"  {finding.zone:<40s} depth={finding.depth} "
              f"confidence={finding.confidence:.2f} "
              f"names={finding.group_size}")


if __name__ == "__main__":
    main()
