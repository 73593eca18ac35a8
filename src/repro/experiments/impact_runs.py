"""Section VI experiment runners: cache pressure, DNSSEC, pDNS storage."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Set

from repro.experiments.context import ExperimentContext
from repro.textutil import format_kv, format_percent, format_table
from repro.impact.cache_pressure import (CachePressureComparison,
                                         run_cache_pressure_study)
from repro.impact.dnssec_cost import DnssecStudyResult, run_dnssec_study
from repro.impact.pdns_storage import PdnsStorageResult, run_pdns_storage_study
from repro.traffic.diurnal import SECONDS_PER_DAY
from repro.traffic.simulate import RPDNS_WINDOW_DATES, MeasurementDate
from repro.traffic.workload import QueryEvent

__all__ = ["Sec6aResult", "run_sec6a_cache_pressure",
           "Sec6bResult", "run_sec6b_dnssec",
           "Sec6cResult", "run_sec6c_pdns_storage"]

_IMPACT_DATE = MeasurementDate("impact-day", 400, 0.95)


def _impact_events(ctx: ExperimentContext,
                   n_events: Optional[int] = None) -> List[QueryEvent]:
    workload = ctx.simulator.workload
    return workload.generate_day(_IMPACT_DATE.day_index,
                                 year_fraction=_IMPACT_DATE.year_fraction,
                                 n_events=n_events)


# ------------------------------------------------------------- Section VI-A

@dataclass
class Sec6aResult:
    comparisons: List[CachePressureComparison]

    def render(self) -> str:
        rows = []
        for comparison in self.comparisons:
            loaded = comparison.with_disposable
            clean = comparison.without_disposable
            rows.append((
                comparison.capacity,
                format_percent(loaded.non_disposable_hit_rate),
                format_percent(clean.non_disposable_hit_rate),
                format_percent(comparison.hit_rate_degradation, 2),
                comparison.extra_live_evictions,
                f"{loaded.mean_latency_ms:.2f}",
                f"{clean.mean_latency_ms:.2f}"))
        table = format_table(
            ["cache cap", "ND hit rate (loaded)", "ND hit rate (clean)",
             "degradation", "extra live evictions", "lat loaded ms",
             "lat clean ms"], rows)
        return ("Section VI-A — cache pressure from disposable domains\n"
                "(paper: disposable churn prematurely evicts useful records "
                "under fixed-size LRU caches; effect grows as capacity "
                "shrinks)\n" + table)

    def degradation_series(self) -> List[float]:
        return [c.hit_rate_degradation for c in self.comparisons]


def run_sec6a_cache_pressure(ctx: ExperimentContext,
                             capacities: Sequence[int] = None,
                             n_events: int = None) -> Sec6aResult:
    base = ctx.profile.cache_capacity
    if capacities is None:
        capacities = [base // 16, base // 8, base // 4, base // 2, base]
    events = _impact_events(ctx, n_events)
    day_start = _IMPACT_DATE.day_index * SECONDS_PER_DAY
    comparisons = run_cache_pressure_study(
        ctx.simulator.authority, events, capacities, day_start=day_start)
    return Sec6aResult(comparisons=comparisons)


# ------------------------------------------------------------- Section VI-B

@dataclass
class Sec6bResult:
    study: DnssecStudyResult

    def render(self) -> str:
        rows = []
        for regime, s in self.study.scenarios.items():
            rows.append((regime, s.validations, s.validations_cached,
                         format_percent(s.validation_cache_hit_rate),
                         s.disposable_validations,
                         f"{s.signature_cache_bytes / 1024:.0f} KiB"))
        table = format_table(
            ["signing regime", "validations", "cached", "val-cache hit",
             "disposable validations", "sig cache"], rows)
        notes = format_kv([
            ("wildcard mitigation savings (validations avoided)",
             format_percent(self.study.wildcard_savings())),
        ])
        return ("Section VI-B — DNSSEC validation cost\n(paper: each "
                "disposable query forces a never-reused signature "
                "validation; wildcard signing collapses them)\n"
                + table + "\n" + notes)


def run_sec6b_dnssec(ctx: ExperimentContext,
                     n_events: int = None) -> Sec6bResult:
    events = _impact_events(ctx, n_events)
    day_start = _IMPACT_DATE.day_index * SECONDS_PER_DAY
    population = ctx.simulator.population
    all_apexes = {zone.apex for zone in ctx.simulator.authority.zones()}
    disposable_apexes = {service.zone for service in population.services}
    study = run_dnssec_study(ctx.simulator.authority, events, all_apexes,
                             disposable_apexes, day_start=day_start,
                             cache_capacity=ctx.profile.cache_capacity)
    return Sec6bResult(study=study)


# ------------------------------------------------------------- Section VI-C

@dataclass
class Sec6cResult:
    result: PdnsStorageResult

    def render(self) -> str:
        first, last = self.result.first_to_last_disposable_share()
        notes = format_kv([
            ("unique RRs after window", self.result.rows_before),
            ("disposable fraction (paper: 88%)",
             format_percent(self.result.disposable_fraction)),
            ("daily new disposable share (paper: 68% -> 94%)",
             f"{format_percent(first)} -> {format_percent(last)}"),
            ("rows after wildcard aggregation",
             self.result.rows_after_wildcard),
            ("remaining fraction of whole store",
             format_percent(self.result.reduction_ratio, 2)),
            ("remaining fraction of disposable rows (paper: 0.7%)",
             format_percent(self.result.disposable_reduction_ratio, 2)),
            ("storage before"
             + (" (measured on-disk)" if self.result.bytes_measured
                else " (48 B/row model)"),
             f"{self.result.bytes_before / 1024:.0f} KiB"),
            ("storage after",
             f"{self.result.bytes_after_wildcard / 1024:.0f} KiB"),
        ])
        return ("Section VI-C — passive DNS storage\n" + notes)


def run_sec6c_pdns_storage(ctx: ExperimentContext) -> Sec6cResult:
    datasets = ctx.rpdns_window()
    groups = ctx.mined_groups(RPDNS_WINDOW_DATES[-1])
    return Sec6cResult(result=run_pdns_storage_study(
        datasets, groups, database=ctx.pdns_database()))
