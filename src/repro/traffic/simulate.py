"""Trace simulator: produces fpDNS datasets like the authors' taps did.

Drives the workload's daily query streams through an RDNS cluster with
a passive-DNS tap attached, producing one :class:`FpDnsDataset` per
simulated day.  Caches persist across days (the real cluster never
restarts at midnight), and the simulated calendar mirrors the paper's
measurement dates: six spot days across 2011 for the growth analyses
plus the 13 consecutive days (11/28–12/10) behind the rpDNS dataset.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core.labeling import LabeledZone
from repro.dns.resolver import RdnsCluster
from repro.pdns.collector import PassiveDnsCollector
from repro.core.records import FpDnsDataset
from repro.traffic.diurnal import SECONDS_PER_DAY
from repro.traffic.population import PopulationConfig, ZonePopulation
from repro.traffic.workload import WorkloadConfig, WorkloadModel

__all__ = ["MeasurementDate", "PAPER_DATES", "RPDNS_WINDOW_DATES",
           "SimulatorConfig", "TraceSimulator"]


@dataclass(frozen=True)
class MeasurementDate:
    """One simulated calendar day.

    ``year_fraction`` positions the day within the simulated year and
    controls the disposable-traffic growth; ``day_index`` is the
    absolute day number used for the cache timebase.
    """

    label: str
    day_index: int
    year_fraction: float


def _paper_dates() -> List[MeasurementDate]:
    """The six spot dates of Figure 13 / Tables I-II."""
    spec = [("2011-02-01", 31, 0.00), ("2011-09-02", 244, 0.64),
            ("2011-09-13", 255, 0.67), ("2011-11-14", 317, 0.86),
            ("2011-11-29", 332, 0.90), ("2011-12-30", 363, 1.00)]
    return [MeasurementDate(label, day, fraction)
            for label, day, fraction in spec]


def _rpdns_window() -> List[MeasurementDate]:
    """The 13 consecutive days 2011-11-28 .. 2011-12-10 (Figures 5, 15)."""
    dates = []
    november = [f"2011-11-{day:02d}" for day in range(28, 31)]
    december = [f"2011-12-{day:02d}" for day in range(1, 11)]
    for offset, label in enumerate(november + december):
        day_index = 331 + offset
        dates.append(MeasurementDate(label, day_index,
                                     0.90 + 0.002 * offset))
    return dates


PAPER_DATES: List[MeasurementDate] = _paper_dates()
RPDNS_WINDOW_DATES: List[MeasurementDate] = _rpdns_window()


@dataclass
class SimulatorConfig:
    """Cluster and cache parameters for the simulated ISP."""

    n_servers: int = 4
    cache_capacity: int = 30_000
    min_ttl: int = 0
    negative_ttl: Optional[int] = None  # the monitored ISP ignored RFC 2308
    population: PopulationConfig = field(default_factory=PopulationConfig)
    workload: WorkloadConfig = field(default_factory=WorkloadConfig)

    def __post_init__(self) -> None:
        if self.n_servers < 1:
            raise ValueError(f"need at least one server, got {self.n_servers}")
        if self.cache_capacity < 1:
            raise ValueError(
                f"cache_capacity must be >= 1, got {self.cache_capacity}")
        if self.min_ttl < 0:
            raise ValueError(f"min_ttl must be >= 0, got {self.min_ttl}")
        if self.negative_ttl is not None and self.negative_ttl < 0:
            raise ValueError(
                f"negative_ttl must be >= 0, got {self.negative_ttl}")


class TraceSimulator:
    """End-to-end synthetic trace generation."""

    def __init__(self, config: Optional[SimulatorConfig] = None) -> None:
        self.config = config or SimulatorConfig()
        self.population = ZonePopulation(self.config.population)
        self.workload = WorkloadModel(self.population, self.config.workload)
        self.authority = self.population.build_authority()
        self.collector = PassiveDnsCollector(day="warmup")
        self.cluster = RdnsCluster(
            self.authority,
            n_servers=self.config.n_servers,
            cache_capacity=self.config.cache_capacity,
            min_ttl=self.config.min_ttl,
            negative_ttl=self.config.negative_ttl,
            taps=[self.collector])

    # -- running ----------------------------------------------------------

    def _apply_ttl_schedule(self, year_fraction: float) -> None:
        """Publish each service's TTL for this point of the year
        (Figure 14: operators moved from ~1 s to ~300 s during 2011).
        """
        from repro.dns.zone import WildcardZone

        for service in self.population.services:
            zone = self.authority.zone_at(service.zone)
            if isinstance(zone, WildcardZone):
                zone.ttl = service.ttl_at(year_fraction)

    def run_day(self, date: MeasurementDate,
                n_events: Optional[int] = None) -> FpDnsDataset:
        """Simulate one day and return its fpDNS dataset.

        One collector roll per day: ``begin_day`` opens the dataset,
        ``end_day`` closes and returns it (the collector retains
        nothing by default, so long calendars stay bounded-memory).
        """
        self._apply_ttl_schedule(date.year_fraction)
        self.collector.begin_day(date.label)
        events = self.workload.generate_day(
            date.day_index, year_fraction=date.year_fraction,
            n_events=n_events)
        day_start = date.day_index * SECONDS_PER_DAY
        query = self.cluster.query
        for event in events:
            query(event.client_id, event.question,
                  day_start + event.timestamp)
        return self.collector.end_day()

    def run_days(self, dates: Sequence[MeasurementDate],
                 n_events: Optional[int] = None) -> List[FpDnsDataset]:
        """Simulate several days, returning one dataset per day."""
        return [self.run_day(date, n_events=n_events) for date in dates]

    # -- ground truth --------------------------------------------------------

    def disposable_truth(self) -> Set[Tuple[str, int]]:
        return self.population.disposable_truth()

    def labeled_zones(self) -> List[LabeledZone]:
        return self.population.labeled_zones()
