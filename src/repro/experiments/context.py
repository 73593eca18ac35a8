"""Shared experiment context.

Most figures/tables consume the same expensive artifacts: simulated
fpDNS days, hit-rate tables, a trained classifier, and per-day mining
results.  :class:`ExperimentContext` computes each lazily and caches
it, and a module-level registry shares a context per scale profile so
a benchmark session does not re-simulate the year for every figure.

Two scale profiles ship by default:

* ``SMALL`` — seconds-scale, for the test suite.
* ``MEDIUM`` — the benchmark default; big enough for the measured
  shapes to be stable.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core.classifier import LadTreeClassifier
from repro.core.features import FeatureExtractor
from repro.core.hitrate import HitRateTable, hit_rates_from_digest
from repro.core.interning import DayDigest, digest_of
from repro.core.labeling import TrainingSet, build_training_set
from repro.core.miner import MinerConfig
from repro.core.ranking import (DailyMiningResult, DisposableZoneRanker,
                                build_tree_from_digest)
from repro.pdns.database import PassiveDnsDatabase, PdnsBackend
from repro.core.records import FpDnsDataset
from repro.traffic.artifacts import FpDnsArtifactCache, artifact_key
from repro.traffic.population import PopulationConfig
from repro.traffic.simulate import (PAPER_DATES, RPDNS_WINDOW_DATES,
                                    MeasurementDate, SimulatorConfig,
                                    TraceSimulator)
from repro.traffic.workload import WorkloadConfig

__all__ = ["ScaleProfile", "SMALL", "MEDIUM", "ExperimentContext",
           "get_context"]


@dataclass(frozen=True)
class ScaleProfile:
    """A named simulation scale."""

    name: str
    events_per_day: int
    n_popular_sites: int
    n_longtail_sites: int
    n_extra_disposable: int
    n_clients: int
    cache_capacity: int
    cdn_objects: int

    def simulator_config(self) -> SimulatorConfig:
        return SimulatorConfig(
            cache_capacity=self.cache_capacity,
            population=PopulationConfig(
                n_popular_sites=self.n_popular_sites,
                n_longtail_sites=self.n_longtail_sites,
                n_extra_disposable=self.n_extra_disposable,
                cdn_objects=self.cdn_objects),
            workload=WorkloadConfig(
                events_per_day=self.events_per_day,
                n_clients=self.n_clients))


SMALL = ScaleProfile(name="small", events_per_day=12_000,
                     n_popular_sites=80, n_longtail_sites=2_400,
                     n_extra_disposable=24, n_clients=160,
                     cache_capacity=6_000, cdn_objects=4_000)

MEDIUM = ScaleProfile(name="medium", events_per_day=60_000,
                      n_popular_sites=200, n_longtail_sites=6_000,
                      n_extra_disposable=40, n_clients=400,
                      cache_capacity=25_000, cdn_objects=20_000)

# The training day mirrors the paper's 11/10/2011 labeling day.
TRAINING_DATE = MeasurementDate("2011-11-10", 313, 0.85)


class ExperimentContext:
    """Lazily computed, cached experiment artifacts for one profile.

    Parameters
    ----------
    profile:
        The simulation scale.
    artifact_cache:
        Optional :class:`~repro.traffic.artifacts.FpDnsArtifactCache`.
        Each completed day is persisted there, and a later session with
        the same profile loads it instead of simulating.
    resident_days:
        Keep at most this many per-entry day datasets resident in
        memory (requires ``artifact_cache``; ignored without one).
        Older days are evicted after each newly produced day and
        transparently reloaded from the artifact cache on the next
        request.  ``None`` (the default) keeps every day resident.
        :meth:`release_day` is the matching manual eviction path.
    """

    def __init__(self, profile: ScaleProfile,
                 artifact_cache: Optional[FpDnsArtifactCache] = None,
                 resident_days: Optional[int] = None) -> None:
        self.profile = profile
        self.artifacts = artifact_cache
        self.resident_days = resident_days
        self.simulator = TraceSimulator(profile.simulator_config())
        self._datasets: Dict[str, FpDnsDataset] = {}
        self._digests: Dict[str, DayDigest] = {}
        self._hit_rates: Dict[str, HitRateTable] = {}
        self._mining: Dict[str, DailyMiningResult] = {}
        self._training_set: Optional[TrainingSet] = None
        self._classifier: Optional[LadTreeClassifier] = None
        self._last_day_index = -1
        # Chronological record of every day produced (simulated or
        # loaded) — the artifact-cache key material — plus how many of
        # those days the simulator has actually executed.  When the two
        # diverge (cache hits), the simulator's resolver caches are cold
        # and must be rewarmed by replay before simulating a later day.
        # The record is append-only by construction: cache keys embed
        # the full production history, so forgetting a day would change
        # every later key.
        self._history: List[MeasurementDate] = []
        self._replayed = 0
        #: Day label -> index into ``_history`` for every produced day.
        #: Membership here (not in ``_datasets``) is the produced
        #: marker, so resident datasets can be evicted independently.
        self._produced: Dict[str, int] = {}
        #: Fresh segmented-store roots handed out this session.
        self._pdns_runs = 0

    def _calendar(self) -> List[MeasurementDate]:
        """Every standard date, in chronological order."""
        dates = {date.label: date
                 for date in [*PAPER_DATES, TRAINING_DATE,
                              *RPDNS_WINDOW_DATES]}
        return sorted(dates.values(), key=lambda d: d.day_index)

    # -- datasets ---------------------------------------------------------

    def _record_day(self, date: MeasurementDate, dataset: FpDnsDataset,
                    store: bool) -> None:
        # Both records are append-only by design: ``_history`` is the
        # artifact-cache key material (forgetting a day would change
        # every later key) and ``_produced`` is the produced marker
        # that makes dataset eviction safe.  Both hold O(days) small
        # values, not per-entry data.
        self._history.append(date)  # reprolint: disable=R015
        # reprolint: disable=R015
        self._produced[date.label] = len(self._history) - 1
        self._datasets[date.label] = dataset
        self._last_day_index = date.day_index
        if store and self.artifacts is not None:
            # Encoding needs the day's digest anyway; build it once and
            # memoise so the first analysis pass gets it free.
            digest = self._digests.get(date.label)
            if digest is None:
                digest = digest_of(dataset)
                self._digests[date.label] = digest
            self.artifacts.store(
                artifact_key(self.simulator.config, self._history), dataset,
                digest=digest)
        self._evict_resident()

    def _evict_resident(self) -> None:
        """Bound the resident per-entry datasets (R015).

        Oldest-produced days are dropped from the in-memory memo once
        more than ``resident_days`` are resident; they stay *produced*
        (``_produced``/``_history`` are untouched) and reload from the
        artifact cache on the next request.  Without an artifact cache
        eviction would make a day unrecoverable, so it is skipped.
        """
        if self.resident_days is None or self.artifacts is None:
            return
        while len(self._datasets) > max(1, self.resident_days):
            oldest = min(self._datasets,
                         key=lambda label: self._produced[label])
            self._datasets.pop(oldest)

    def _reload(self, date: MeasurementDate) -> FpDnsDataset:
        """Bring an evicted (produced) day back into residency."""
        if self.artifacts is None:
            raise RuntimeError(
                f"day {date.label} was released but no artifact cache is "
                f"configured to reload it from")
        key = artifact_key(self.simulator.config,
                           self._history[:self._produced[date.label] + 1])
        cached = self.artifacts.load(key)
        if cached is None:
            raise RuntimeError(
                f"day {date.label} is no longer in the artifact cache; "
                f"cannot restore the released dataset")
        self._datasets[date.label] = cached
        self._evict_resident()
        return cached

    def release_day(self, date: MeasurementDate) -> None:
        """Drop the resident per-day memos for ``date``.

        Frees the dataset, digest, hit-rate table, and mining results;
        the day stays *produced*, so a later request reloads the
        dataset from the artifact cache and recomputes the derived
        tables.  This is the manual eviction path for long sessions
        (the automatic one is the ``resident_days`` bound).
        """
        label = date.label
        self._datasets.pop(label, None)
        self._digests.pop(label, None)
        self._hit_rates.pop(label, None)
        for key in [k for k in self._mining
                    if k.startswith(f"{label}@")]:
            self._mining.pop(key)

    def _simulate_batch(self, dates: List[MeasurementDate]) -> None:
        """Produce ``dates`` (chronological), cheapest source first:
        artifact cache, then the simulator (rewarming its caches by
        replay if they are behind the recorded history)."""
        remaining = list(dates)
        while remaining and self.artifacts is not None:
            key = artifact_key(self.simulator.config,
                               [*self._history, remaining[0]])
            cached = self.artifacts.load(key)
            if cached is None:
                break
            self._record_day(remaining.pop(0), cached, store=False)
        if not remaining:
            return
        # Replay any days the simulator missed (their outputs exist
        # already; only the cache state matters).
        for date in self._history[self._replayed:]:
            self.simulator.run_day(date)
            self._replayed += 1
        for date in remaining:
            dataset = self.simulator.run_day(date)
            self._replayed += 1
            self._record_day(date, dataset, store=True)

    def dataset(self, date: MeasurementDate) -> FpDnsDataset:
        """Simulated fpDNS day for ``date``.

        Resolver caches persist across days, so simulation must happen
        in chronological order regardless of request order: the first
        request runs the whole standard calendar up front; later ad-hoc
        dates must not go back in time.
        """
        if date.label in self._datasets:
            return self._datasets[date.label]
        if date.label in self._produced:
            # Produced earlier but evicted from residency: restore it
            # from the artifact cache rather than re-simulating.
            return self._reload(date)
        pending = [d for d in self._calendar()
                   if d.label not in self._produced]
        if any(d.label == date.label for d in pending):
            self._simulate_batch(pending)
        else:
            if date.day_index < self._last_day_index:
                raise ValueError(
                    f"cannot simulate {date.label} (day {date.day_index}) "
                    f"after day {self._last_day_index}: resolver caches "
                    "would travel back in time")
            self._simulate_batch([date])
        resident = self._datasets.get(date.label)
        if resident is not None:
            return resident
        # The residency bound may have evicted the day in the same
        # batch that produced it; bring it straight back.
        return self._reload(date)

    def datasets(self, dates: Sequence[MeasurementDate]) -> List[FpDnsDataset]:
        return [self.dataset(date) for date in dates]

    def paper_dates(self) -> List[FpDnsDataset]:
        return self.datasets(PAPER_DATES)

    def rpdns_window(self) -> List[FpDnsDataset]:
        return self.datasets(RPDNS_WINDOW_DATES)

    def digest(self, date: MeasurementDate) -> DayDigest:
        """Columnar digest of the day — the single pass every
        downstream consumer (hit rates, tree, mining, analyses) shares.

        A cache-warm session whose days were loaded from columnar
        artifacts gets the deserialised digest directly
        (:func:`~repro.core.interning.digest_of`): disk -> numpy ->
        digest, no entry materialisation.
        """
        if date.label not in self._digests:
            self._digests[date.label] = digest_of(self.dataset(date))
        return self._digests[date.label]

    def hit_rates(self, date: MeasurementDate) -> HitRateTable:
        if date.label not in self._hit_rates:
            self._hit_rates[date.label] = hit_rates_from_digest(
                self.digest(date))
        return self._hit_rates[date.label]

    # -- training / classification -------------------------------------------

    def training_set(self) -> TrainingSet:
        if self._training_set is None:
            digest = self.digest(TRAINING_DATE)
            tree = build_tree_from_digest(digest)
            extractor = FeatureExtractor(tree, self.hit_rates(TRAINING_DATE))
            self._training_set = build_training_set(
                self.simulator.labeled_zones(), tree, extractor)
        return self._training_set

    def classifier(self) -> LadTreeClassifier:
        if self._classifier is None:
            training = self.training_set()
            self._classifier = LadTreeClassifier().fit(training.X, training.y)
        return self._classifier

    def mining_result(self, date: MeasurementDate,
                      threshold: float = 0.9) -> DailyMiningResult:
        key = f"{date.label}@{threshold}"
        if key not in self._mining:
            ranker = DisposableZoneRanker(
                self.classifier(), MinerConfig(threshold=threshold))
            self._mining[key] = ranker.run_digest(self.digest(date),
                                                  self.hit_rates(date))
        return self._mining[key]

    def mined_groups(self, date: MeasurementDate,
                     threshold: float = 0.9) -> Set[Tuple[str, int]]:
        return self.mining_result(date, threshold).groups

    # -- passive-DNS backend --------------------------------------------

    def pdns_database(self) -> PdnsBackend:
        """A fresh, empty passive-DNS backend for one study run.

        With ``REPRO_PDNS_STORE`` set, returns a
        :class:`~repro.pdns.store.SegmentedPdnsStore` rooted in a fresh
        subdirectory of that path (studies must start from an empty
        store); otherwise the in-memory
        :class:`~repro.pdns.database.PassiveDnsDatabase`.  The choice
        never changes study *results* — the backends are
        query-equivalent — only memory/disk placement.
        """
        root = os.environ.get("REPRO_PDNS_STORE")
        if not root:
            return PassiveDnsDatabase()
        from repro.pdns.store import SegmentedPdnsStore

        while True:
            candidate = (Path(root)
                         / f"{self.profile.name}-run{self._pdns_runs}")
            self._pdns_runs += 1
            # A leftover store from an earlier session must not leak
            # its rows into this run; probe until an unused root.
            if not any(candidate.glob("*.pdnsseg")):
                return SegmentedPdnsStore(candidate)

    # -- ground truth -------------------------------------------------------

    def truth_groups(self) -> Set[Tuple[str, int]]:
        return self.simulator.disposable_truth()


_CONTEXTS: Dict[str, ExperimentContext] = {}


def _options_from_env() -> Tuple[Optional[FpDnsArtifactCache],
                                 Optional[int]]:
    """Opt-in knobs for shared contexts.

    ``REPRO_ARTIFACT_CACHE`` names a directory to persist/load fpDNS
    days; ``REPRO_RESIDENT_DAYS`` bounds how many per-entry day
    datasets stay resident in memory (evicted days reload from the
    artifact cache).  Both leave every produced byte identical to the
    cache-less run — they only change wall-clock time and memory — so
    reading them here does not violate the determinism contract.
    """
    cache_dir = os.environ.get("REPRO_ARTIFACT_CACHE")
    cache = FpDnsArtifactCache(cache_dir) if cache_dir else None
    resident_raw = os.environ.get("REPRO_RESIDENT_DAYS")
    resident_days = int(resident_raw) if resident_raw else None
    return cache, resident_days


def get_context(profile: ScaleProfile = MEDIUM) -> ExperimentContext:
    """Shared per-profile context (benchmarks reuse one simulation).

    Honours the ``REPRO_ARTIFACT_CACHE`` / ``REPRO_RESIDENT_DAYS``
    environment knobs (see :func:`_options_from_env`) when the context
    is first created; later calls return the existing instance.
    """
    if profile.name not in _CONTEXTS:
        artifact_cache, resident_days = _options_from_env()
        _CONTEXTS[profile.name] = ExperimentContext(
            profile, artifact_cache=artifact_cache,
            resident_days=resident_days)
    return _CONTEXTS[profile.name]
