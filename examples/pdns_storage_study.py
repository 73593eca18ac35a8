#!/usr/bin/env python
"""Section VI-C in action: disposable domains vs passive-DNS storage.

Bootstraps a passive-DNS database over the 13-day rpDNS window
(11/28/2011-12/10/2011), shows how new-RR ingestion becomes dominated
by disposable records, and applies the paper's wildcard-aggregation
mitigation (1022vr5.dns.xx.fbcdn.net -> *.dns.xx.fbcdn.net).

Run:  python examples/pdns_storage_study.py
"""

from repro.experiments.context import SMALL, ExperimentContext
from repro.textutil import format_percent, format_table
from repro.impact.pdns_storage import run_pdns_storage_study
from repro.traffic.simulate import RPDNS_WINDOW_DATES


def main() -> None:
    context = ExperimentContext(SMALL)
    print("simulating the 13-day rpDNS window and mining the final day "
          "for disposable zones ...\n")
    datasets = context.rpdns_window()
    groups = context.mined_groups(RPDNS_WINDOW_DATES[-1])
    study = run_pdns_storage_study(datasets, groups)

    rows = [(day.day, day.new_total, day.new_disposable,
             format_percent(day.disposable_share))
            for day in study.dedup.days]
    print(format_table(["day", "new RRs", "new disposable RRs",
                        "disposable share"], rows))

    first, last = study.first_to_last_disposable_share()
    print(f"\nafter 13 days the database holds "
          f"{study.rows_before:,} unique RRs "
          f"({study.disposable_fraction:.1%} disposable; paper: 88%)")
    print(f"daily new-RR disposable share: {first:.1%} -> {last:.1%} "
          "(paper: 68% -> 94%)")
    print(f"\nwildcard aggregation: {study.rows_before:,} rows -> "
          f"{study.rows_after_wildcard:,} rows "
          f"({study.reduction_ratio:.1%} remaining)")
    print(f"storage: {study.bytes_before / 1024:.0f} KiB -> "
          f"{study.bytes_after_wildcard / 1024:.0f} KiB")


if __name__ == "__main__":
    main()
