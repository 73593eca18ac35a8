"""Workload model: turns the zone population into daily query streams.

Each simulated day mixes the traffic classes the paper's fpDNS dataset
contains.  The *disposable share* of events grows linearly across the
simulated year (``disposable_share_start`` → ``..._end``), which is the
mechanism behind the Figure 13 growth curves; within the disposable
share, per-service weights follow each service's own growth factor
(Google's experiment grows fastest, reproducing Section V-C's Google
observations).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, NamedTuple, Optional, Tuple

import numpy as np

from repro.dns.message import Question, RRType
from repro.traffic.clients import ClientPopulation
from repro.traffic.diurnal import DiurnalProfile
from repro.traffic.population import PopulationConfig, ZonePopulation
from repro.traffic.zipf import ZipfSampler

__all__ = ["WorkloadConfig", "QueryEvent", "WorkloadModel"]


class QueryEvent(NamedTuple):
    """One client query: when, who, what.

    Tuple-backed: a MEDIUM day materialises 60k of these, so
    construction cost is squarely on the hot path.
    """

    timestamp: float  # seconds since day start
    client_id: int
    question: Question
    category: str


@dataclass
class WorkloadConfig:
    """Mixture and scale knobs for the daily query stream."""

    events_per_day: int = 60_000
    day_seconds: float = 7_200.0  # compressed day; see DiurnalProfile
    n_clients: int = 400
    # Event-share mixture (disposable takes its share from `popular`).
    popular_share: float = 0.60
    google_share: float = 0.06
    cdn_share: float = 0.04
    longtail_share: float = 0.15
    typo_share: float = 0.05
    disposable_share_start: float = 0.055
    disposable_share_end: float = 0.095
    aaaa_fraction: float = 0.10
    cname_fraction: float = 0.02
    site_popularity_exponent: float = 1.15
    longtail_popularity_exponent: float = 0.3
    seed: int = 42

    def __post_init__(self) -> None:
        fixed = (self.google_share + self.cdn_share + self.longtail_share
                 + self.typo_share)
        if fixed + self.disposable_share_end >= 1.0:
            raise ValueError("mixture shares exceed 1.0 at end of year")
        for name in ("popular_share", "google_share", "cdn_share",
                     "longtail_share", "typo_share",
                     "disposable_share_start", "disposable_share_end"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")

    def disposable_share(self, year_fraction: float) -> float:
        """Linear growth of the disposable event share over the year."""
        year_fraction = min(max(year_fraction, 0.0), 1.0)
        return (self.disposable_share_start
                + (self.disposable_share_end - self.disposable_share_start)
                * year_fraction)


class WorkloadModel:
    """Generates daily query streams against a :class:`ZonePopulation`."""

    CATEGORIES = ("popular", "google", "cdn", "longtail", "typo", "disposable")

    def __init__(self, population: ZonePopulation,
                 config: Optional[WorkloadConfig] = None,
                 diurnal: Optional[DiurnalProfile] = None) -> None:
        self.population = population
        self.config = config or WorkloadConfig()
        self.diurnal = diurnal or DiurnalProfile()
        self.clients = ClientPopulation(self.config.n_clients,
                                        population.services,
                                        seed=self.config.seed + 1)
        self._site_sampler = ZipfSampler(
            len(population.popular_sites),
            self.config.site_popularity_exponent)
        self._longtail_sampler = ZipfSampler(
            len(population.longtail_sites),
            self.config.longtail_popularity_exponent)
        self._rng = np.random.default_rng(self.config.seed)

    # -- mixture -----------------------------------------------------------

    def category_probabilities(self, year_fraction: float) -> np.ndarray:
        """Event-share vector over CATEGORIES at ``year_fraction``."""
        cfg = self.config
        disposable = cfg.disposable_share(year_fraction)
        popular = max(cfg.popular_share - (disposable
                                           - cfg.disposable_share_start), 0.0)
        raw = np.array([popular, cfg.google_share, cfg.cdn_share,
                        cfg.longtail_share, cfg.typo_share, disposable])
        return raw / raw.sum()

    def service_probabilities(self, year_fraction: float) -> np.ndarray:
        weights = np.array([service.weight_at(year_fraction)
                            for service in self.population.services])
        return weights / weights.sum()

    # -- day generation -----------------------------------------------------

    def generate_day(self, day_index: int,
                     year_fraction: float = 0.0,
                     n_events: Optional[int] = None) -> List[QueryEvent]:
        """Generate one day's events, sorted by timestamp.

        Event construction is batched per category: one vectorised RNG
        draw per decision column (site rank, client, qtype, ...)
        instead of several scalar draws per event.  The RNG consumption
        order is fixed by the CATEGORIES tuple, so the stream stays a
        pure function of (config, day_index, year_fraction, n_events).
        """
        rng = np.random.default_rng(self.config.seed + 1000 + day_index)
        count = self.config.events_per_day if n_events is None else n_events
        timestamps = self.diurnal.sample_timestamps(
            rng, count, day_seconds=self.config.day_seconds)
        category_p = self.category_probabilities(year_fraction)
        category_ids = rng.choice(len(self.CATEGORIES), size=count,
                                  p=category_p)
        service_p = self.service_probabilities(year_fraction)
        events: List[Optional[QueryEvent]] = [None] * count
        for cat_id, category in enumerate(self.CATEGORIES):
            indices = np.flatnonzero(category_ids == cat_id)
            if indices.size == 0:
                continue
            batch = self._BATCH_BUILDERS[category]
            batch(self, rng, indices, timestamps, service_p, events)
        return events  # type: ignore[return-value]

    # -- per-category batch builders ----------------------------------------
    #
    # Each builder fills ``out[i]`` for every ``i`` in ``indices``.  All
    # per-event randomness that can be drawn as a column is; only string
    # synthesis (generator names, misspellings) stays scalar.

    def _qtypes(self, rng: np.random.Generator,
                n: int) -> List[RRType]:
        u = rng.random(n)
        aaaa = self.config.aaaa_fraction
        return [RRType.AAAA if x < aaaa else RRType.A for x in u]

    def _popular_batch(self, rng: np.random.Generator, indices: np.ndarray,
                       timestamps: np.ndarray, service_p: np.ndarray,
                       out: List[Optional[QueryEvent]]) -> None:
        n = indices.size
        sites = self.population.popular_sites
        site_ranks = self._site_sampler.sample(rng, n)
        clients = self.clients.sample_clients(rng, n)
        cname_u = rng.random(n)
        # Within a site, hostnames follow a mild popularity skew: the
        # first (www-like) hostname dominates.
        host_ranks = rng.geometric(0.45, size=n) - 1
        qtypes = self._qtypes(rng, n)
        cname_fraction = self.config.cname_fraction
        for k in range(n):
            i = int(indices[k])
            site = sites[int(site_ranks[k])]
            if cname_u[k] < cname_fraction:
                question = Question(f"cdnlink.{site.zone}", RRType.A)
            else:
                hostnames = site.hostnames
                rank = int(host_ranks[k])
                if rank >= len(hostnames):
                    rank = len(hostnames) - 1
                question = Question(hostnames[rank], qtypes[k])
            out[i] = QueryEvent(float(timestamps[i]), int(clients[k]),
                                question, "popular")

    def _google_batch(self, rng: np.random.Generator, indices: np.ndarray,
                      timestamps: np.ndarray, service_p: np.ndarray,
                      out: List[Optional[QueryEvent]]) -> None:
        n = indices.size
        hosts = self.population.GOOGLE_HOSTS
        ranks = np.minimum(rng.geometric(0.35, size=n) - 1, len(hosts) - 1)
        clients = self.clients.sample_clients(rng, n)
        qtypes = self._qtypes(rng, n)
        for k in range(n):
            i = int(indices[k])
            out[i] = QueryEvent(float(timestamps[i]), int(clients[k]),
                                Question(hosts[int(ranks[k])], qtypes[k]),
                                "google")

    def _cdn_batch(self, rng: np.random.Generator, indices: np.ndarray,
                   timestamps: np.ndarray, service_p: np.ndarray,
                   out: List[Optional[QueryEvent]]) -> None:
        n = indices.size
        generators = self.population.cdn_generators
        generator_ids = rng.integers(0, len(generators), size=n)
        clients = self.clients.sample_clients(rng, n)
        for k in range(n):
            i = int(indices[k])
            generator = generators[int(generator_ids[k])]
            out[i] = QueryEvent(float(timestamps[i]), int(clients[k]),
                                Question(generator.generate(rng), RRType.A),
                                "cdn")

    def _longtail_batch(self, rng: np.random.Generator, indices: np.ndarray,
                        timestamps: np.ndarray, service_p: np.ndarray,
                        out: List[Optional[QueryEvent]]) -> None:
        n = indices.size
        zones = self.population.longtail_sites
        zone_ranks = self._longtail_sampler.sample(rng, n)
        bare_u = rng.random(n)
        clients = self.clients.sample_clients(rng, n)
        for k in range(n):
            i = int(indices[k])
            zone = zones[int(zone_ranks[k])]
            name = zone if bare_u[k] < 0.4 else "www." + zone
            out[i] = QueryEvent(float(timestamps[i]), int(clients[k]),
                                Question(name, RRType.A), "longtail")

    def _typo_batch(self, rng: np.random.Generator, indices: np.ndarray,
                    timestamps: np.ndarray, service_p: np.ndarray,
                    out: List[Optional[QueryEvent]]) -> None:
        """Misspelled popular domains: resolve to NXDOMAIN."""
        n = indices.size
        registered = self.population.registered_2lds
        sites = self.population.popular_sites
        bare_u = rng.random(n)
        clients = self.clients.sample_clients(rng, n)
        for k in range(n):
            i = int(indices[k])
            for _ in range(8):
                site = sites[self._site_sampler.sample_one(rng)]
                zone = self._misspell(rng, site.zone)
                if zone not in registered:
                    break
            name = zone if bare_u[k] < 0.5 else "www." + zone
            out[i] = QueryEvent(float(timestamps[i]), int(clients[k]),
                                Question(name, RRType.A), "typo")

    def _disposable_batch(self, rng: np.random.Generator, indices: np.ndarray,
                          timestamps: np.ndarray, service_p: np.ndarray,
                          out: List[Optional[QueryEvent]]) -> None:
        n = indices.size
        services = self.population.services
        service_ids = rng.choice(len(services), size=n, p=service_p)
        for k in range(n):
            i = int(indices[k])
            service = services[int(service_ids[k])]
            client = self.clients.sample_cohort_client(rng, service.name)
            out[i] = QueryEvent(float(timestamps[i]), client,
                                Question(service.generator.generate(rng),
                                         RRType.A),
                                "disposable")

    #: Category -> batch builder, in CATEGORIES order (fixes the RNG
    #: consumption order and therefore the generated stream).
    _BATCH_BUILDERS = {
        "popular": _popular_batch,
        "google": _google_batch,
        "cdn": _cdn_batch,
        "longtail": _longtail_batch,
        "typo": _typo_batch,
        "disposable": _disposable_batch,
    }

    @staticmethod
    def _misspell(rng: np.random.Generator, zone: str) -> str:
        label, _, tld = zone.partition(".")
        if len(label) < 2:
            return "x" + zone
        mode = int(rng.integers(0, 3))
        pos = int(rng.integers(0, len(label) - 1))
        if mode == 0:  # drop a character
            label = label[:pos] + label[pos + 1:]
        elif mode == 1:  # swap adjacent characters
            chars = list(label)
            chars[pos], chars[pos + 1] = chars[pos + 1], chars[pos]
            label = "".join(chars)
        else:  # double a character
            label = label[:pos] + label[pos] + label[pos:]
        return f"{label}.{tld}"
