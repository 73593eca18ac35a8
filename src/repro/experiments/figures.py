"""Per-figure experiment runners.

Each ``run_fig*`` function regenerates the series/rows behind one
figure of the paper's evaluation from a shared
:class:`~repro.experiments.context.ExperimentContext`, and returns a
result object whose ``render()`` prints them.  Paper-reported values
are included in the rendering for side-by-side comparison; the
substitution (synthetic ISP) means shapes, not absolute numbers, are
expected to match — see EXPERIMENTS.md.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.analysis.chrdist import ChrSplit, chr_cdf
from repro.analysis.dedup import DedupReport, run_dedup_window
from repro.analysis.growth import GrowthSeries, growth_series
from repro.analysis.tail import (LOW_VOLUME_THRESHOLD, dhr_cdf,
                                 lookup_volume_distribution)
from repro.analysis.ttl import TtlHistogram, disposable_ttl_histogram
from repro.analysis.volume import (DayVolumeSummary, VolumeSeries,
                                   day_summary_from_digest,
                                   hourly_volumes_from_digest)
from repro.analysis.cdf import EmpiricalCdf
from repro.core.classifier import (LadTreeClassifier, RocCurve,
                                   cross_validate)
from repro.experiments.context import ExperimentContext
from repro.textutil import (format_kv, format_percent, format_series,
                            format_table)
from repro.traffic.simulate import PAPER_DATES, RPDNS_WINDOW_DATES

__all__ = [
    "Fig02Result", "run_fig02_traffic_volume",
    "Fig03Result", "run_fig03_long_tail",
    "Fig04Result", "run_fig04_chr_distribution",
    "Fig05Result", "run_fig05_new_rrs",
    "Fig07Result", "run_fig07_chr_labeled",
    "Fig12Result", "run_fig12_roc",
    "Fig13Result", "run_fig13_growth",
    "Fig14Result", "run_fig14_ttl",
    "Fig15Result", "run_fig15_pdns_growth",
]


# ---------------------------------------------------------------- Figure 2

@dataclass
class Fig02Result:
    """Traffic above/below the RDNS cluster over six days."""

    summaries: List[DayVolumeSummary]
    below_series: List[VolumeSeries]
    above_series: List[VolumeSeries]

    @property
    def mean_above_below_ratio(self) -> float:
        return float(np.mean([s.above_below_ratio for s in self.summaries]))

    @property
    def mean_nxdomain_share_above(self) -> float:
        return float(np.mean([s.nxdomain_share_above for s in self.summaries]))

    @property
    def mean_nxdomain_share_below(self) -> float:
        return float(np.mean([s.nxdomain_share_below for s in self.summaries]))

    def diurnal_peak_to_trough(self) -> float:
        """Mean peak/trough volume ratio of the below series."""
        ratios = []
        for series in self.below_series:
            trough = max(int(series.total.min()), 1)
            ratios.append(series.total.max() / trough)
        return float(np.mean(ratios))

    def render(self) -> str:
        rows = [(s.day, s.below_total, s.above_total,
                 f"{s.above_below_ratio:.3f}",
                 format_percent(s.nxdomain_share_below),
                 format_percent(s.nxdomain_share_above),
                 format_percent(s.google_akamai_share_below))
                for s in self.summaries]
        table = format_table(
            ["day", "below", "above", "above/below", "nx below", "nx above",
             "google+akamai below"], rows)
        notes = format_kv([
            ("mean above/below ratio (paper: ~0.1, order of magnitude gap)",
             f"{self.mean_above_below_ratio:.3f}"),
            ("mean NXDOMAIN share above (paper: ~40%)",
             format_percent(self.mean_nxdomain_share_above)),
            ("mean NXDOMAIN share below (paper: ~6%)",
             format_percent(self.mean_nxdomain_share_below)),
            ("diurnal peak/trough volume ratio (paper: pronounced)",
             f"{self.diurnal_peak_to_trough():.2f}x"),
        ])
        return f"Figure 2 — traffic above/below RDNS\n{table}\n{notes}"


def run_fig02_traffic_volume(ctx: ExperimentContext,
                             n_days: int = 6) -> Fig02Result:
    dates = RPDNS_WINDOW_DATES[3:3 + n_days]  # 12/01 .. 12/06
    digests = [ctx.digest(date) for date in dates]
    day_seconds = ctx.simulator.config.workload.day_seconds
    return Fig02Result(
        summaries=[day_summary_from_digest(d) for d in digests],
        below_series=[hourly_volumes_from_digest(d, "below",
                                                 day_seconds=day_seconds)
                      for d in digests],
        above_series=[hourly_volumes_from_digest(d, "above",
                                                 day_seconds=day_seconds)
                      for d in digests])


# ---------------------------------------------------------------- Figure 3

@dataclass
class Fig03Result:
    """Long tail of lookup volume (3a) and domain hit rate (3b)."""

    day: str
    sorted_volumes: np.ndarray
    low_volume_fraction: float       # paper: >90% of RRs below 10 lookups
    dhr_cdf: EmpiricalCdf
    zero_dhr_fraction: float         # paper: ~89%

    def render(self) -> str:
        head = self.sorted_volumes[:5].tolist()
        notes = format_kv([
            ("day", self.day),
            ("distinct RRs", len(self.sorted_volumes)),
            ("top-5 lookup volumes", head),
            (f"RRs with < {LOW_VOLUME_THRESHOLD} lookups (paper: >90%)",
             format_percent(self.low_volume_fraction)),
            ("RRs with zero DHR (paper: ~89%)",
             format_percent(self.zero_dhr_fraction)),
        ])
        return f"Figure 3 — lookup-volume and DHR long tails\n{notes}"


def run_fig03_long_tail(ctx: ExperimentContext) -> Fig03Result:
    date = PAPER_DATES[0]  # 2011-02-01, as in the paper
    hit_rates = ctx.hit_rates(date)
    volumes = lookup_volume_distribution(hit_rates)
    low_fraction = float(np.mean(volumes < LOW_VOLUME_THRESHOLD))
    cdf = dhr_cdf(hit_rates)
    return Fig03Result(day=date.label, sorted_volumes=volumes,
                       low_volume_fraction=low_fraction, dhr_cdf=cdf,
                       zero_dhr_fraction=hit_rates.zero_dhr_fraction())


# ---------------------------------------------------------------- Figure 4

@dataclass
class Fig04Result:
    """CHR distribution for one day and pooled across the year."""

    day: str
    day_cdf: EmpiricalCdf
    year_cdf: EmpiricalCdf
    below_half_fraction: float  # paper: 58% of CHR samples < 0.5

    def render(self) -> str:
        day_series = [f"{x:.1f}:{p:.2f}" for x, p in self.day_cdf.series(6)]
        notes = format_kv([
            ("day", self.day),
            ("CHR samples (day)", len(self.day_cdf)),
            ("CHR < 0.5 fraction (paper: ~58%)",
             format_percent(self.below_half_fraction)),
            ("day CDF (x:P)", " ".join(day_series)),
            ("year-pooled CHR samples", len(self.year_cdf)),
        ])
        return f"Figure 4 — cache hit rate distribution\n{notes}"


def run_fig04_chr_distribution(ctx: ExperimentContext) -> Fig04Result:
    from repro.experiments.context import TRAINING_DATE
    hit_rates = ctx.hit_rates(TRAINING_DATE)
    day_cdf = chr_cdf(hit_rates)
    pooled: List[float] = []
    for date in PAPER_DATES:
        pooled.extend(ctx.hit_rates(date).chr_values().tolist())
    return Fig04Result(day=TRAINING_DATE.label, day_cdf=day_cdf,
                       year_cdf=EmpiricalCdf.from_samples(pooled),
                       below_half_fraction=day_cdf.at(0.4999))


# ---------------------------------------------------------------- Figure 5

@dataclass
class Fig05Result:
    """Deduplicated new RRs per day across the 13-day window."""

    report: DedupReport

    def render(self) -> str:
        rows = [(d.day, d.new_total, d.new_google, d.new_akamai)
                for d in self.report.days]
        table = format_table(["day", "new RRs", "google", "akamai"], rows)
        notes = format_kv([
            ("overall decline first->last day (paper: ~30%)",
             format_percent(self.report.overall_decline())),
            ("total unique RRs", self.report.total_unique_rrs),
        ])
        return f"Figure 5 — new RRs per day (rpDNS window)\n{table}\n{notes}"


def run_fig05_new_rrs(ctx: ExperimentContext) -> Fig05Result:
    datasets = ctx.rpdns_window()
    report = run_dedup_window(datasets, ctx.truth_groups())
    return Fig05Result(report=report)


# ---------------------------------------------------------------- Figure 7

@dataclass
class Fig07Result:
    """CHR distributions of labeled disposable vs non-disposable zones."""

    split: ChrSplit

    def render(self) -> str:
        notes = format_kv([
            ("day", self.split.day),
            ("disposable CHR == 0 (paper: ~90%)",
             format_percent(self.split.disposable_zero_fraction)),
            ("non-disposable CHR > 0.58 (paper: ~45%)",
             format_percent(
                 self.split.non_disposable_fraction_above(0.58))),
            ("non-disposable median CHR",
             f"{self.split.non_disposable_median:.3f}"),
        ])
        return f"Figure 7 — CHR by zone class\n{notes}"


def run_fig07_chr_labeled(ctx: ExperimentContext) -> Fig07Result:
    """CHR split over the *labeled* zones, exactly as in Section IV-B:
    the disposable class is the ground-truth disposable zones, the
    non-disposable class is the popular (Alexa-style) zones — not the
    whole complement, which would drag in the non-disposable long tail
    the paper's labeling deliberately excluded."""
    from repro.analysis.chrdist import chr_cdf_for_zones
    from repro.experiments.context import TRAINING_DATE
    hit_rates = ctx.hit_rates(TRAINING_DATE)
    population = ctx.simulator.population
    disposable_zones = [service.zone for service in population.services]
    popular_zones = [site.zone for site in population.popular_sites]
    split = ChrSplit(
        day=hit_rates.day,
        disposable=chr_cdf_for_zones(hit_rates, disposable_zones),
        non_disposable=chr_cdf_for_zones(hit_rates, popular_zones))
    return Fig07Result(split=split)


# ---------------------------------------------------------------- Figure 12

@dataclass
class Fig12Result:
    """ROC of the LAD tree under 10-fold CV."""

    roc: RocCurve
    auc: float
    tpr_at_05: float
    fpr_at_05: float
    tpr_at_09: float
    fpr_at_09: float
    n_train: int
    n_positive: int

    def render(self) -> str:
        notes = format_kv([
            ("training rows", f"{self.n_train} ({self.n_positive} disposable)"),
            ("AUC", f"{self.auc:.3f}"),
            ("TPR @ theta=0.5 (paper: 97%)", format_percent(self.tpr_at_05)),
            ("FPR @ theta=0.5 (paper: 1%)", format_percent(self.fpr_at_05)),
            ("TPR @ theta=0.9 (paper: 92.4%)", format_percent(self.tpr_at_09)),
            ("FPR @ theta=0.9 (paper: 0.6%)", format_percent(self.fpr_at_09)),
        ])
        return f"Figure 12 — LAD tree ROC (10-fold CV)\n{notes}"


def run_fig12_roc(ctx: ExperimentContext, n_folds: int = 10,
                  seed: int = 11) -> Fig12Result:
    training = ctx.training_set()
    cv = cross_validate(lambda: LadTreeClassifier(), training.X, training.y,
                        n_folds=n_folds, seed=seed)
    at05 = cv.confusion_at(0.5)
    at09 = cv.confusion_at(0.9)
    return Fig12Result(
        roc=cv.roc(), auc=cv.auc(),
        tpr_at_05=at05.true_positive_rate, fpr_at_05=at05.false_positive_rate,
        tpr_at_09=at09.true_positive_rate, fpr_at_09=at09.false_positive_rate,
        n_train=len(training), n_positive=training.n_positive)


# ---------------------------------------------------------------- Figure 13

@dataclass
class Fig13Result:
    """Growth of disposable shares over the six measurement dates."""

    series: GrowthSeries

    def render(self) -> str:
        rows = [(p.day, format_percent(p.queried_fraction),
                 format_percent(p.resolved_fraction),
                 format_percent(p.rr_fraction), p.n_disposable_zones)
                for p in self.series.points]
        table = format_table(
            ["day", "queried (paper 23.1->27.6%)",
             "resolved (paper 27.6->37.2%)", "RRs (paper 38.3->65.5%)",
             "zones found"], rows)
        return f"Figure 13 — growth of disposable zones\n{table}"


def run_fig13_growth(ctx: ExperimentContext) -> Fig13Result:
    results = [ctx.mining_result(date) for date in PAPER_DATES]
    return Fig13Result(series=growth_series(results))


# ---------------------------------------------------------------- Figure 14

@dataclass
class Fig14Result:
    """Disposable-domain TTL histogram, February vs December."""

    february: TtlHistogram
    december: TtlHistogram

    def render(self) -> str:
        rows = []
        ttls = sorted(set(self.february.counts) | set(self.december.counts))
        for ttl in ttls[:12]:
            rows.append((ttl, self.february.counts.get(ttl, 0),
                         self.december.counts.get(ttl, 0)))
        table = format_table(["TTL (s)", "Feb count", "Dec count"], rows)
        notes = format_kv([
            ("Feb mode TTL", self.february.mode()),
            ("Dec mode TTL (paper: 300s)", self.december.mode()),
        ])
        return f"Figure 14 — disposable TTL histogram\n{table}\n{notes}"


def run_fig14_ttl(ctx: ExperimentContext) -> Fig14Result:
    feb, dec = PAPER_DATES[0], PAPER_DATES[-1]
    feb_groups = ctx.mined_groups(feb)
    dec_groups = ctx.mined_groups(dec)
    return Fig14Result(
        february=disposable_ttl_histogram(ctx.dataset(feb), feb_groups),
        december=disposable_ttl_histogram(ctx.dataset(dec), dec_groups))


# ---------------------------------------------------------------- Figure 15

@dataclass
class Fig15Result:
    """New RRs over 13 days, split disposable vs non-disposable."""

    report: DedupReport

    def render(self) -> str:
        rows = [(d.day, d.new_total, d.new_disposable, d.new_non_disposable,
                 format_percent(d.disposable_share))
                for d in self.report.days]
        table = format_table(
            ["day", "new RRs", "disposable", "non-disposable",
             "disposable share (paper 68->94%)"], rows)
        notes = format_kv([
            ("disposable fraction of all unique RRs (paper: 88%)",
             format_percent(self.report.disposable_fraction)),
        ])
        return f"Figure 15 — pDNS new RRs by class\n{table}\n{notes}"


def run_fig15_pdns_growth(ctx: ExperimentContext) -> Fig15Result:
    datasets = ctx.rpdns_window()
    # Use the miner's output on the window's last day — the deployed
    # system's view — rather than ground truth.
    groups = ctx.mined_groups(RPDNS_WINDOW_DATES[-1])
    return Fig15Result(report=run_dedup_window(datasets, groups))
