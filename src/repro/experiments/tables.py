"""Table experiments: Tables I and II and the Figure 11 summary."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Set, Tuple

import numpy as np

from repro.analysis.tail import (TailRow, lookup_volume_tail_row,
                                 zero_dhr_tail_row)
from repro.core.classifier import LadTreeClassifier, cross_validate
from repro.core.groups import name_matches_groups
from repro.experiments.context import ExperimentContext
from repro.textutil import format_kv, format_percent, format_table
from repro.traffic.simulate import PAPER_DATES

__all__ = ["TableResult", "run_table1_lookup_tail", "run_table2_dhr_tail",
           "Fig11Summary", "run_fig11_summary"]


@dataclass
class TableResult:
    """Rows of Table I or Table II."""

    title: str
    rows: List[TailRow]

    def render(self) -> str:
        body = [(row.day, format_percent(row.tail_fraction, 2),
                 format_percent(row.disposable_share_of_tail, 2),
                 format_percent(row.disposable_in_tail_fraction, 2))
                for row in self.rows]
        table = format_table(
            ["date", "tail size", "disposable share of tail",
             "% of all disposable in tail"], body)
        return f"{self.title}\n{table}"

    def disposable_share_series(self) -> List[float]:
        return [row.disposable_share_of_tail for row in self.rows]

    def in_tail_series(self) -> List[float]:
        return [row.disposable_in_tail_fraction for row in self.rows]


def run_table1_lookup_tail(ctx: ExperimentContext) -> TableResult:
    """Table I: disposable RRs in the low-lookup-volume tail."""
    rows = [lookup_volume_tail_row(ctx.hit_rates(date),
                                   ctx.mined_groups(date))
            for date in PAPER_DATES]
    return TableResult(
        title="Table I — disposable RRs in low lookup volume tail "
              "(paper: tail 90->94%, disposable share 28->57%, "
              "in-tail 96-98%)",
        rows=rows)


def run_table2_dhr_tail(ctx: ExperimentContext) -> TableResult:
    """Table II: disposable RRs in the zero-domain-hit-rate tail."""
    rows = [zero_dhr_tail_row(ctx.hit_rates(date), ctx.mined_groups(date))
            for date in PAPER_DATES]
    return TableResult(
        title="Table II — disposable RRs in zero domain hit rate tail "
              "(paper: tail 89->94%, disposable share 28->57%, "
              "in-tail 94-97%)",
        rows=rows)


@dataclass
class Fig11Summary:
    """The Figure 11 measurement-results summary table."""

    tpr_at_05: float
    fpr_at_05: float
    n_disposable_zones: int
    n_disposable_2lds: int
    queried_first: float
    queried_last: float
    resolved_first: float
    resolved_last: float
    rr_first: float
    rr_last: float
    example_zones: List[str]
    cdn_zone_count: int = 0
    # Section V-C: "On average, there are 7 periods in disposable
    # domains" — disposable names are longer than normal ones.
    mean_disposable_periods: float = 0.0

    @property
    def cdn_zone_fraction(self) -> float:
        """Paper Section V-C1: 91 of 14,488 flagged zones (0.6 %) were
        CDN related — borderline cases where unpopular content merely
        looks one-time from this vantage point."""
        return (self.cdn_zone_count / self.n_disposable_zones
                if self.n_disposable_zones else 0.0)

    def render(self) -> str:
        pairs = [
            ("classifier accuracy (paper: 97% TP / 1% FP)",
             f"{format_percent(self.tpr_at_05)} TP / "
             f"{format_percent(self.fpr_at_05)} FP"),
            ("number of disposable zones (paper: 14,488)",
             self.n_disposable_zones),
            ("number of 2LDs with disposable zones (paper: 12,397)",
             self.n_disposable_2lds),
            ("disposable/queried domains (paper: 23.1% -> 27.6%)",
             f"{format_percent(self.queried_first)} -> "
             f"{format_percent(self.queried_last)}"),
            ("disposable/resolved domains (paper: 27.6% -> 37.2%)",
             f"{format_percent(self.resolved_first)} -> "
             f"{format_percent(self.resolved_last)}"),
            ("disposable RRs/all RRs (paper: 38.3% -> 65.5%)",
             f"{format_percent(self.rr_first)} -> "
             f"{format_percent(self.rr_last)}"),
            ("CDN-related flagged zones (paper: 0.6%)",
             f"{self.cdn_zone_count} "
             f"({format_percent(self.cdn_zone_fraction)})"),
            ("mean periods in disposable names (paper: ~7)",
             f"{self.mean_disposable_periods:.1f}"),
            ("example disposable zones",
             ", ".join(self.example_zones[:8])),
        ]
        return format_kv(pairs, title="Figure 11 — measurement summary")


def run_fig11_summary(ctx: ExperimentContext) -> Fig11Summary:
    training = ctx.training_set()
    cv = cross_validate(lambda: LadTreeClassifier(), training.X, training.y,
                        n_folds=10, seed=11)
    at05 = cv.confusion_at(0.5)
    results = [ctx.mining_result(date) for date in PAPER_DATES]
    all_zone_depths: Set[Tuple[str, int]] = set()
    all_2lds: Set[str] = set()
    for result in results:
        all_zone_depths |= result.groups
        all_2lds |= result.disposable_2lds
    examples = sorted({zone for zone, _ in all_zone_depths})
    from repro.analysis.volume import ZONE_GROUPS, _in_group
    cdn_zones = sum(1 for zone, _ in all_zone_depths
                    if _in_group(zone, ZONE_GROUPS["akamai"]))
    # Mean periods (label count - 1) over flagged names on the last day.
    last = results[-1]
    last_dataset = ctx.dataset(PAPER_DATES[-1])
    flagged = [name for name in last_dataset.resolved_domains()
               if name_matches_groups(name, last.groups)]
    mean_periods = (float(np.mean([name.count(".") for name in flagged]))
                    if flagged else 0.0)
    return Fig11Summary(
        tpr_at_05=at05.true_positive_rate,
        fpr_at_05=at05.false_positive_rate,
        n_disposable_zones=len(all_zone_depths),
        n_disposable_2lds=len(all_2lds),
        queried_first=results[0].queried_fraction,
        queried_last=results[-1].queried_fraction,
        resolved_first=results[0].resolved_fraction,
        resolved_last=results[-1].resolved_fraction,
        rr_first=results[0].rr_fraction,
        rr_last=results[-1].rr_fraction,
        example_zones=examples,
        cdn_zone_count=cdn_zones,
        mean_disposable_periods=mean_periods)
